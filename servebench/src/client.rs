//! The load generator's HTTP client: one request per connection, as the
//! service speaks it, with every failure mapped to a [`Failure`].

use crate::stats::{status_failure, Failure};
use nhpp_data::json::{self, Value};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The exact bytes the client sends for one request.
pub fn request_bytes(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A 2xx response body parsed as a JSON object.
pub type Object = BTreeMap<String, Value>;

/// Sends one request and returns the parsed 2xx body. `on_connect`
/// sees the local port before the request is written, so an in-process
/// server can tie the connection to the operation that opened it.
pub fn call(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
    on_connect: impl FnOnce(u16),
) -> Result<Object, (Failure, String)> {
    let transport = |e: std::io::Error| (Failure::Transport, format!("{method} {target}: {e}"));
    let mut stream = TcpStream::connect(addr).map_err(transport)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(transport)?;
    on_connect(stream.local_addr().map_err(transport)?.port());
    stream
        .write_all(&request_bytes(method, target, body))
        .map_err(transport)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(transport)?;
    let (status, text) = parse_response(&raw)
        .map_err(|e| (Failure::Transport, format!("{method} {target}: {e}")))?;
    if let Some(why) = status_failure(status) {
        return Err((why, format!("{method} {target}: {status} {text}")));
    }
    match json::parse(&text) {
        Ok(Value::Object(map)) => Ok(map),
        _ => Err((
            Failure::Validation,
            format!("{method} {target}: body is not a JSON object: {text}"),
        )),
    }
}

/// Splits a raw response into status and body, checking Content-Length.
fn parse_response(raw: &[u8]) -> Result<(u16, String), String> {
    let text = std::str::from_utf8(raw).map_err(|_| "non-UTF-8 response".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("truncated response head")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let length = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .ok_or("missing Content-Length")?;
    if body.len() != length {
        return Err(format!(
            "body of {} bytes, Content-Length {length}",
            body.len()
        ));
    }
    Ok((status, body.to_string()))
}

/// A numeric field of a response.
pub fn num(obj: &Object, key: &str) -> Result<f64, (Failure, String)> {
    obj.get(key)
        .and_then(Value::as_f64)
        .filter(|x| x.is_finite())
        .ok_or_else(|| {
            (
                Failure::Validation,
                format!("missing or non-finite '{key}' in {obj:?}"),
            )
        })
}

/// Fails validation with `message` unless `ok`.
pub fn ensure(ok: bool, message: impl FnOnce() -> String) -> Result<(), (Failure, String)> {
    if ok {
        Ok(())
    } else {
        Err((Failure::Validation, message()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parsing_checks_length() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_response(ok), Ok((200, "{}".to_string())));
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n{}").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
