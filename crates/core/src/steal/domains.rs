//! Steal domains: topology-aware victim tiers and pluggable policies.
//!
//! [`StealDomains`] is computed once per runtime from the
//! [`MachineModel`]: for every thief core it groups every other core
//! into escalating tiers — SMT sibling, shares-a-cache, same socket,
//! remote socket — so victim selection can prefer the victims whose
//! queues are already warm in a nearby cache (paper Section III-A,
//! generalized from "order by cache distance" to explicit tiers).
//!
//! The *decision* of which victim to rob, and how much, lives behind
//! the [`StealPolicy`] trait, with four implementations:
//!
//! | policy | victim order | budget |
//! |---|---|---|
//! | [`FlatPolicy`] | today's `construct_core_set` (follows [`WsPolicy::locality`]) | 1 color |
//! | [`HierarchicalPolicy`] | tier by tier, busiest first within a tier | escalates with tier |
//! | [`PaperBasePolicy`] | busiest-first wrap-around (Figure 2) | 1 color |
//! | [`PaperImprovedPolicy`] | cache distance (Section III-A) | 1 color |
//!
//! [`FlatPolicy`] is the default and is bit-identical to the victim
//! selection the executors used before this module existed; the
//! builder upgrades to [`HierarchicalPolicy`] only on machines that
//! declare more than one tier (multiple sockets or SMT — see
//! [`default_steal_policy`]), which no preset model does. The budget
//! escalation is the "steal more when crossing a socket" amortization:
//! a cross-socket steal pays the transfer penalty once per attempt, so
//! taking several colors per attempt divides that cost across more
//! work.

use std::cmp::Reverse;
use std::fmt;
use std::sync::Arc;

use mely_topology::MachineModel;

use super::{construct_core_set_base_into, WsPolicy};

/// How far a steal reaches, nearest first. The order of the variants
/// is the escalation order: `Smt < Llc < Socket < Remote`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StealTier {
    /// Victim is an SMT sibling of the thief (same physical core).
    Smt,
    /// Victim shares at least one cache level with the thief.
    Llc,
    /// Victim is on the thief's socket but shares no cache with it.
    Socket,
    /// Victim is on another socket.
    Remote,
}

impl StealTier {
    /// All tiers, nearest first.
    pub const ALL: [StealTier; 4] = [
        StealTier::Smt,
        StealTier::Llc,
        StealTier::Socket,
        StealTier::Remote,
    ];

    /// Default steal budget for this tier: the maximum number of color
    /// queues one successful steal attempt may take. Near steals stay
    /// surgical (one color keeps the victim warm); far steals amortize
    /// the transfer penalty over more work.
    pub fn default_budget(self) -> usize {
        match self {
            StealTier::Smt | StealTier::Llc => 1,
            StealTier::Socket => 2,
            StealTier::Remote => 4,
        }
    }
}

impl fmt::Display for StealTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StealTier::Smt => "smt",
            StealTier::Llc => "llc",
            StealTier::Socket => "socket",
            StealTier::Remote => "remote",
        })
    }
}

/// Classifies the relationship between two distinct cores.
fn tier_between(machine: &MachineModel, a: usize, b: usize) -> StealTier {
    if machine.is_smt_sibling(a, b) {
        StealTier::Smt
    } else if machine.distance(a, b) <= machine.levels().len() as u32 {
        // `distance` is 1 + index of the first shared level, so any
        // value within 1..=levels.len() means some cache is shared.
        StealTier::Llc
    } else if machine.socket_of(a) == machine.socket_of(b) {
        StealTier::Socket
    } else {
        StealTier::Remote
    }
}

/// The per-core steal tiers of one machine, computed once at runtime
/// construction and shared read-only by every worker.
///
/// Built for the `cores` worker cores actually running, which may be
/// fewer than the machine has; victims and sockets only cover the
/// running cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealDomains {
    num_cores: usize,
    /// `tier[a * num_cores + b]`; the diagonal is padded with `Smt`
    /// and never read.
    tier: Vec<StealTier>,
    /// Per thief: non-empty tiers nearest first, victims in id order.
    tiers: Vec<Vec<(StealTier, Vec<usize>)>>,
    /// Per thief: the flattened tier order (a permutation of all other
    /// running cores).
    order: Vec<Vec<usize>>,
    /// Per thief: every other core of the *machine* by cache distance
    /// ([`MachineModel::victims_by_distance`]), kept so the
    /// locality-aware order costs no allocation per steal attempt.
    by_distance: Vec<Vec<usize>>,
    /// Running cores grouped by machine socket (only non-empty groups,
    /// in socket order).
    sockets: Vec<Vec<usize>>,
}

impl StealDomains {
    /// Computes the steal domains of the first `cores` cores of
    /// `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds the machine's core count
    /// (the same contract as the executors).
    pub fn new(machine: &MachineModel, cores: usize) -> Self {
        assert!(
            cores >= 1 && cores <= machine.num_cores(),
            "steal domains need 1..=num_cores cores"
        );
        let mut tier = vec![StealTier::Smt; cores * cores];
        for a in 0..cores {
            for b in 0..cores {
                if a != b {
                    tier[a * cores + b] = tier_between(machine, a, b);
                }
            }
        }
        let mut tiers = Vec::with_capacity(cores);
        let mut order = Vec::with_capacity(cores);
        for a in 0..cores {
            let mut by_tier: Vec<(StealTier, Vec<usize>)> = Vec::new();
            for t in StealTier::ALL {
                let members: Vec<usize> = (0..cores)
                    .filter(|&b| b != a && tier[a * cores + b] == t)
                    .collect();
                if !members.is_empty() {
                    by_tier.push((t, members));
                }
            }
            order.push(
                by_tier
                    .iter()
                    .flat_map(|(_, m)| m.iter().copied())
                    .collect(),
            );
            tiers.push(by_tier);
        }
        let mut sockets: Vec<Vec<usize>> = vec![Vec::new(); machine.num_sockets()];
        for c in 0..cores {
            sockets[machine.socket_of(c)].push(c);
        }
        sockets.retain(|s| !s.is_empty());
        StealDomains {
            num_cores: cores,
            tier,
            tiers,
            order,
            by_distance: (0..cores).map(|a| machine.victims_by_distance(a)).collect(),
            sockets,
        }
    }

    /// Number of (running) cores the domains cover.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// The tier a steal from `victim` by `thief` crosses.
    ///
    /// # Panics
    ///
    /// Panics if the ids are out of range or equal.
    pub fn tier_of(&self, thief: usize, victim: usize) -> StealTier {
        assert!(
            thief < self.num_cores && victim < self.num_cores && thief != victim,
            "tier_of needs two distinct running cores"
        );
        self.tier[thief * self.num_cores + victim]
    }

    /// The non-empty tiers of `thief`, nearest first; victims within a
    /// tier are in core-id order.
    pub fn tiers(&self, thief: usize) -> &[(StealTier, Vec<usize>)] {
        &self.tiers[thief]
    }

    /// All other running cores in tier order (a permutation of
    /// `0..num_cores` minus `thief`).
    pub fn victims(&self, thief: usize) -> &[usize] {
        &self.order[thief]
    }

    /// Every other core of the machine by cache distance from `thief`,
    /// ties by id: the locality-aware `construct_core_set`
    /// (Section III-A). Unlike [`StealDomains::victims`] this may name
    /// cores beyond the running ones; executors skip those.
    pub(crate) fn victims_by_distance(&self, thief: usize) -> &[usize] {
        &self.by_distance[thief]
    }

    /// Number of sockets that have at least one running core.
    pub fn num_sockets(&self) -> usize {
        self.sockets.len()
    }

    /// The running cores of occupied socket `socket` (indices into the
    /// occupied-socket list, not raw machine sockets).
    pub fn socket_cores(&self, socket: usize) -> &[usize] {
        &self.sockets[socket]
    }
}

/// Immutable context handed to a [`StealPolicy`]: the active
/// [`WsPolicy`], the machine and its precomputed [`StealDomains`].
#[derive(Debug, Clone, Copy)]
pub struct StealContext<'a> {
    /// The heuristics toggles the runtime was built with.
    pub ws: WsPolicy,
    /// The machine model the runtime was built with.
    pub machine: &'a MachineModel,
    /// The precomputed steal domains over the running cores.
    pub domains: &'a StealDomains,
}

/// Victim-selection and steal-budget heuristics, pluggable per runtime
/// via `RuntimeBuilder::steal_policy`.
///
/// Implementations must be deterministic functions of their inputs:
/// both executors rely on identical `(thief, loads)` producing
/// identical victim orders for schedule replay (the sim executor's
/// fingerprints) to hold.
pub trait StealPolicy: fmt::Debug + Send + Sync {
    /// Short label used by reports, benches and ablation tables.
    fn name(&self) -> &'static str;

    /// Writes the victims `thief` should probe, in order, into `out`
    /// (which it clears first). `loads` holds one pending-work estimate
    /// per running core (the thief's own entry included); executors
    /// skip victims whose load is zero. The caller owns and reuses
    /// `out`, so a warm steal attempt does not allocate.
    fn victims_into(
        &self,
        thief: usize,
        loads: &[usize],
        ctx: &StealContext<'_>,
        out: &mut Vec<usize>,
    );

    /// The victims `thief` should probe, in order, in a fresh vector
    /// (see [`StealPolicy::victims_into`]).
    fn victims(&self, thief: usize, loads: &[usize], ctx: &StealContext<'_>) -> Vec<usize> {
        let mut out = Vec::new();
        self.victims_into(thief, loads, ctx, &mut out);
        out
    }

    /// Maximum number of color queues one successful attempt against
    /// `victim` may take. The default is the classic single-color
    /// steal.
    fn steal_budget(&self, thief: usize, victim: usize, ctx: &StealContext<'_>) -> usize {
        let _ = (thief, victim, ctx);
        1
    }
}

/// Today's behavior, bit for bit: dispatches on
/// [`WsPolicy::locality`] exactly like the executors did before
/// policies existed — base busiest-first order, or pure cache-distance
/// order when the locality heuristic is on. Single-color steals.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatPolicy;

impl StealPolicy for FlatPolicy {
    fn name(&self) -> &'static str {
        "flat"
    }

    fn victims_into(
        &self,
        thief: usize,
        loads: &[usize],
        ctx: &StealContext<'_>,
        out: &mut Vec<usize>,
    ) {
        if ctx.ws.locality {
            PaperImprovedPolicy.victims_into(thief, loads, ctx, out);
        } else {
            construct_core_set_base_into(thief, loads, out);
        }
    }
}

/// The paper's base algorithm (Figure 2) regardless of
/// [`WsPolicy::locality`]: victims from the busiest core onward,
/// wrapping in id order. Single-color steals.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperBasePolicy;

impl StealPolicy for PaperBasePolicy {
    fn name(&self) -> &'static str {
        "paper-base"
    }

    fn victims_into(
        &self,
        thief: usize,
        loads: &[usize],
        _ctx: &StealContext<'_>,
        out: &mut Vec<usize>,
    ) {
        construct_core_set_base_into(thief, loads, out);
    }
}

/// The paper's improved (locality-aware) victim order (Section III-A)
/// regardless of [`WsPolicy::locality`]: pure cache distance, ties by
/// core id. Single-color steals.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperImprovedPolicy;

impl StealPolicy for PaperImprovedPolicy {
    fn name(&self) -> &'static str {
        "paper-improved"
    }

    fn victims_into(
        &self,
        thief: usize,
        _loads: &[usize],
        ctx: &StealContext<'_>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.extend_from_slice(ctx.domains.victims_by_distance(thief));
    }
}

/// Topology-aware hierarchical stealing: probe the nearest tier first
/// (SMT sibling, then cache-sharing cores, then the rest of the
/// socket, then remote sockets), busiest victim first *within* a tier,
/// and escalate the steal budget with the tier
/// ([`StealTier::default_budget`]) so a cross-socket steal amortizes
/// its transfer penalty over several colors.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchicalPolicy;

impl StealPolicy for HierarchicalPolicy {
    fn name(&self) -> &'static str {
        "hierarchical"
    }

    fn victims_into(
        &self,
        thief: usize,
        loads: &[usize],
        ctx: &StealContext<'_>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        for (_, members) in ctx.domains.tiers(thief) {
            let start = out.len();
            out.extend_from_slice(members);
            // Busiest first within the tier; ties to the lowest id so
            // the order (and therefore any replayed schedule) is a
            // deterministic function of the loads. The keys are unique,
            // so the in-place unstable sort gives the stable order.
            out[start..]
                .sort_unstable_by_key(|&v| (Reverse(loads.get(v).copied().unwrap_or(0)), v));
        }
    }

    fn steal_budget(&self, thief: usize, victim: usize, ctx: &StealContext<'_>) -> usize {
        ctx.domains.tier_of(thief, victim).default_budget()
    }
}

/// The builder's policy choice when none is set explicitly:
/// [`HierarchicalPolicy`] on machines that declare more than one steal
/// tier (multiple sockets or SMT), [`FlatPolicy`] everywhere else. No
/// preset model declares either, so default runtimes keep their exact
/// pre-policy schedules; spoofed topologies
/// ([`MachineModel::from_spec`]) opt in automatically.
pub fn default_steal_policy(machine: &MachineModel) -> Arc<dyn StealPolicy> {
    if machine.num_sockets() > 1 || machine.smt_per_core() > 1 {
        Arc::new(HierarchicalPolicy)
    } else {
        Arc::new(FlatPolicy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steal::{construct_core_set, construct_core_set_base};

    fn dual_socket() -> MachineModel {
        MachineModel::from_spec("2s×4c×2t/llc=8").unwrap()
    }

    #[test]
    fn tiers_classify_the_dual_socket_shape() {
        let m = dual_socket();
        let d = StealDomains::new(&m, 16);
        assert_eq!(d.tier_of(0, 1), StealTier::Smt);
        assert_eq!(d.tier_of(0, 2), StealTier::Llc);
        assert_eq!(d.tier_of(0, 8), StealTier::Remote);
        assert_eq!(d.tier_of(8, 0), StealTier::Remote);
        assert_eq!(d.tier_of(8, 9), StealTier::Smt);
        // With an LLC spanning the socket there is no cache-less
        // same-socket pair; drop the LLC to see the Socket tier.
        let m2 = MachineModel::from_spec("2s×4c×2t").unwrap();
        let d2 = StealDomains::new(&m2, 16);
        assert_eq!(d2.tier_of(0, 2), StealTier::Socket);
        assert_eq!(d2.tier_of(0, 8), StealTier::Remote);
    }

    #[test]
    fn victim_order_is_a_permutation_in_tier_order() {
        let m = dual_socket();
        let d = StealDomains::new(&m, 16);
        for thief in 0..16 {
            let v = d.victims(thief);
            let mut sorted: Vec<usize> = v.to_vec();
            sorted.sort_unstable();
            let expect: Vec<usize> = (0..16).filter(|&c| c != thief).collect();
            assert_eq!(sorted, expect, "thief {thief}: not a permutation");
            // Tier of successive victims never decreases.
            for w in v.windows(2) {
                assert!(d.tier_of(thief, w[0]) <= d.tier_of(thief, w[1]));
            }
        }
    }

    #[test]
    fn domains_respect_fewer_running_cores() {
        let m = dual_socket();
        // Only 6 running cores: all in socket 0.
        let d = StealDomains::new(&m, 6);
        assert_eq!(d.num_cores(), 6);
        assert_eq!(d.num_sockets(), 1);
        assert_eq!(d.socket_cores(0), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(d.victims(5).len(), 5);
        // 10 running cores: two cores spill onto socket 1.
        let d = StealDomains::new(&m, 10);
        assert_eq!(d.num_sockets(), 2);
        assert_eq!(d.socket_cores(1), &[8, 9]);
    }

    #[test]
    fn flat_policy_matches_construct_core_set() {
        let m = MachineModel::xeon_e5410();
        let d = StealDomains::new(&m, 8);
        for ws in [WsPolicy::base(), WsPolicy::improved()] {
            let ctx = StealContext {
                ws,
                machine: &m,
                domains: &d,
            };
            let loads = vec![3, 0, 7, 1, 0, 2, 9, 4];
            for thief in 0..8 {
                assert_eq!(
                    FlatPolicy.victims(thief, &loads, &ctx),
                    construct_core_set(ws, thief, &loads, &m),
                    "flat must be bit-identical ({ws}, thief {thief})"
                );
                assert_eq!(FlatPolicy.steal_budget(thief, (thief + 1) % 8, &ctx), 1);
            }
        }
    }

    #[test]
    fn paper_variants_force_one_branch_each() {
        let m = MachineModel::xeon_e5410();
        let d = StealDomains::new(&m, 8);
        // Locality flag off, yet the improved variant still orders by
        // distance — and vice versa for the base variant.
        let ctx = StealContext {
            ws: WsPolicy::base(),
            machine: &m,
            domains: &d,
        };
        let mut loads = vec![0; 8];
        loads[6] = 100;
        assert_eq!(
            PaperImprovedPolicy.victims(2, &loads, &ctx),
            m.victims_by_distance(2)
        );
        let ctx_loc = StealContext {
            ws: WsPolicy::improved(),
            ..ctx
        };
        assert_eq!(
            PaperBasePolicy.victims(3, &loads, &ctx_loc),
            construct_core_set_base(3, &loads)
        );
    }

    #[test]
    fn hierarchical_prefers_near_tiers_and_escalates_budget() {
        let m = dual_socket();
        let d = StealDomains::new(&m, 16);
        let ctx = StealContext {
            ws: WsPolicy::improved(),
            machine: &m,
            domains: &d,
        };
        // Remote core 9 is by far the busiest, but the SMT sibling and
        // the LLC neighbours still come first.
        let mut loads = vec![1; 16];
        loads[9] = 1000;
        loads[5] = 7;
        let v = HierarchicalPolicy.victims(0, &loads, &ctx);
        assert_eq!(v[0], 1, "SMT sibling first");
        assert_eq!(v[1], 5, "busiest LLC neighbour next");
        assert_eq!(&v[2..7], &[2, 3, 4, 6, 7], "rest of the socket by id");
        assert_eq!(v[7], 9, "busiest remote core leads the remote tier");
        // Budgets escalate with the tier.
        assert_eq!(HierarchicalPolicy.steal_budget(0, 1, &ctx), 1);
        assert_eq!(HierarchicalPolicy.steal_budget(0, 5, &ctx), 1);
        assert_eq!(HierarchicalPolicy.steal_budget(0, 9, &ctx), 4);
        let m2 = MachineModel::from_spec("2s×4c×2t").unwrap();
        let d2 = StealDomains::new(&m2, 16);
        let ctx2 = StealContext {
            ws: WsPolicy::improved(),
            machine: &m2,
            domains: &d2,
        };
        assert_eq!(HierarchicalPolicy.steal_budget(0, 2, &ctx2), 2);
    }

    #[test]
    fn default_policy_is_flat_unless_multi_tier() {
        assert_eq!(
            default_steal_policy(&MachineModel::xeon_e5410()).name(),
            "flat"
        );
        assert_eq!(
            default_steal_policy(&MachineModel::amd_16core()).name(),
            "flat"
        );
        assert_eq!(default_steal_policy(&dual_socket()).name(), "hierarchical");
        let smt_only = MachineModel::from_spec("1s×4c×2t").unwrap();
        assert_eq!(default_steal_policy(&smt_only).name(), "hierarchical");
    }
}
