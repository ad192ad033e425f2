//! The HTTP the benchmark's clients speak: the GET for one of the
//! server's prebuilt files, and a strict check of each response — framed
//! by `Content-Length`, status 200, and the body byte-for-byte what the
//! server's `ResponseCache::populate_uniform` holds for that file.

/// Files the server prebuilds (`SwsConfig::default().files`).
pub const FILES: usize = 150;
/// Size of each file (`SwsConfig::default().file_size`): 1 KB.
pub const FILE_SIZE: usize = 1024;

/// The keep-alive GET for `file`.
pub fn request(file: usize) -> Vec<u8> {
    format!("GET /f{file}.bin HTTP/1.1\r\nHost: sws\r\nConnection: keep-alive\r\n\r\n").into_bytes()
}

/// Header block plus body length of the response at the head of `buf`:
/// `Ok(None)` while incomplete, `Err` when the bytes cannot be a 200.
pub fn frame(buf: &[u8]) -> Result<Option<usize>, String> {
    const MAX_HEAD: usize = 1024;
    let scan = &buf[..buf.len().min(MAX_HEAD)];
    let Some(end) = scan.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() >= MAX_HEAD {
            Err("no header end within 1 KB".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "header is not UTF-8".to_string())?;
    let status = head.lines().next().unwrap_or("");
    if !status.starts_with("HTTP/1.1 200 ") {
        return Err(format!("status line {status:?}"));
    }
    let len = head
        .split("\r\n")
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| "no Content-Length".to_string())?;
    let total = end + 4 + len;
    Ok((buf.len() >= total).then_some(total))
}

/// Checks that `response` (one framed response) carries `file`'s body.
pub fn verify(response: &[u8], file: usize) -> Result<(), String> {
    let body_at = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .ok_or_else(|| "unframed response".to_string())?;
    let body = &response[body_at..];
    let want = b'a' + (file % 26) as u8;
    if body.len() != FILE_SIZE {
        return Err(format!(
            "/f{file}.bin: body of {} bytes, want {FILE_SIZE}",
            body.len()
        ));
    }
    if let Some(i) = body.iter().position(|&b| b != want) {
        return Err(format!("/f{file}.bin: byte {i} differs"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(file: usize) -> Vec<u8> {
        let mut r = format!(
            "HTTP/1.1 200 OK\r\nServer: sws\r\nContent-Length: {FILE_SIZE}\r\nContent-Type: text/plain\r\n\r\n"
        )
        .into_bytes();
        r.extend(std::iter::repeat_n(b'a' + (file % 26) as u8, FILE_SIZE));
        r
    }

    #[test]
    fn frames_and_verifies_a_cached_file() {
        let r = response(27);
        assert_eq!(frame(&r), Ok(Some(r.len())));
        assert_eq!(frame(&r[..r.len() - 1]), Ok(None));
        assert!(verify(&r, 27).is_ok());
        assert!(verify(&r, 28).is_err());
    }

    #[test]
    fn rejects_errors() {
        let r = b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        assert!(frame(r).is_err());
    }
}
