//! Property tests: wire input never panics the HTTP parsers.
//!
//! `http::read_request` and `http::read_response` are fed arbitrary bytes,
//! valid messages with bytes replaced, inserted or deleted, and valid
//! messages followed by a random trailer.  Every call returns an error or
//! a message.  A message that parses leaves the reader exactly at the end
//! of its framing, which an independent decoder here locates: the blank
//! line that ends the head, then the `Content-Length` body, the chunked
//! body, or (for an unframed response) everything to EOF.

use std::io::Cursor;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use wec_serve::http;

/// Framed messages: each one ends where its framing says.
fn requests() -> Vec<Vec<u8>> {
    let body = "{\"bench\": \"181.mcf\", \"cfg\": {\"side_entries\": 16}}";
    vec![
        b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
        format!(
            "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
        b"HEAD /healthz HTTP/1.0\r\nConnection: close\r\n\r\n".to_vec(),
        b"GET /jobs/7/events HTTP/1.1\nHost: x\n\n".to_vec(),
    ]
}

fn responses() -> Vec<Vec<u8>> {
    vec![
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"ok\":true}"
            .to_vec(),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n10\r\n0123456789abcdef\r\n0\r\n\r\n"
            .to_vec(),
        b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n".to_vec(),
    ]
}

/// An unframed response: its body runs to EOF, so it takes no trailer.
const UNFRAMED: &[u8] = b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nto the end";

/// Bytes that matter to the framing, so edits hit them often.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), select(b"0123456789abcdef:+- \r\n".to_vec())]
}

/// Just past the first blank line after the start line.
fn head_end(input: &[u8]) -> Option<usize> {
    let mut pos = 0;
    let mut first = true;
    while let Some(nl) = input[pos..].iter().position(|&b| b == b'\n') {
        let line = &input[pos..pos + nl];
        pos += nl + 1;
        if !first && line.strip_suffix(b"\r").unwrap_or(line).is_empty() {
            return Some(pos);
        }
        first = false;
    }
    None
}

/// Decode a chunked body starting at `pos`: where its framing ends, and
/// its data.
fn dechunk(input: &[u8], mut pos: usize) -> Option<(usize, Vec<u8>)> {
    let mut data = Vec::new();
    loop {
        let nl = input[pos..].iter().position(|&b| b == b'\n')?;
        let line = &input[pos..pos + nl];
        let line = std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(line)).ok()?;
        let len = usize::from_str_radix(line, 16).ok()?;
        pos += nl + 1;
        let chunk = input.get(pos..pos.checked_add(len)?.checked_add(2)?)?;
        pos += len + 2;
        if &chunk[len..] != b"\r\n" {
            return None;
        }
        if len == 0 {
            return Some((pos, data));
        }
        data.extend_from_slice(&chunk[..len]);
    }
}

/// The `Content-Length` a parsed message declares.
fn declared_length(value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("parsed with Content-Length {value:?}"))
}

/// Parse `input` as a request.  `Ok(None)` if it does not parse; else the
/// reader's position, which must be the end of the head plus the declared
/// body.
fn request_framing(input: &[u8]) -> Result<Option<usize>, String> {
    let mut r = Cursor::new(input);
    let Ok(req) = http::read_request(&mut r) else {
        return Ok(None);
    };
    let pos = r.position() as usize;
    let head = head_end(input).ok_or("a request parsed without a blank line")?;
    let end = head
        + req
            .header("Content-Length")
            .map_or(Ok(0), declared_length)?;
    if pos != end || input.get(head..end) != Some(&req.body[..]) {
        return Err(format!(
            "request framing: reader at {pos}, framing ends at {end}, body {} bytes",
            req.body.len()
        ));
    }
    Ok(Some(pos))
}

/// Parse `input` as a response; like [`request_framing`], with chunked
/// and unframed bodies.
fn response_framing(input: &[u8]) -> Result<Option<usize>, String> {
    let mut r = Cursor::new(input);
    let Ok(resp) = http::read_response(&mut r) else {
        return Ok(None);
    };
    let pos = r.position() as usize;
    let head = head_end(input).ok_or("a response parsed without a blank line")?;
    let chunked = resp
        .header("Transfer-Encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let (end, body) = if chunked {
        dechunk(input, head).ok_or("a chunked body the decoder rejects")?
    } else if let Some(len) = resp.header("Content-Length") {
        let end = head + declared_length(len)?;
        (end, input.get(head..end).unwrap_or_default().to_vec())
    } else {
        (input.len(), input[head..].to_vec())
    };
    if pos != end || body != resp.body {
        return Err(format!(
            "response framing: reader at {pos}, framing ends at {end}, body {} bytes",
            resp.body.len()
        ));
    }
    Ok(Some(pos))
}

/// Replace, insert or delete one byte per edit.
fn edit(msg: &mut Vec<u8>, edits: &[(u8, usize, u8)]) {
    for &(kind, at, b) in edits {
        match kind {
            0 if !msg.is_empty() => {
                let i = at % msg.len();
                msg[i] = b;
            }
            1 => msg.insert(at % (msg.len() + 1), b),
            _ if !msg.is_empty() => {
                msg.remove(at % msg.len());
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes: an error or a message, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(byte(), 0..256)) {
        request_framing(&bytes)?;
        response_framing(&bytes)?;
    }

    /// Valid messages with a few bytes replaced, inserted or deleted.
    #[test]
    fn mutated_messages_never_panic(
        which in 0usize..8,
        edits in vec((0u8..3, any::<usize>(), byte()), 1..6),
    ) {
        let mut all = requests();
        all.extend(responses());
        all.push(UNFRAMED.to_vec());
        let mut msg = all[which].clone();
        edit(&mut msg, &edits);
        request_framing(&msg)?;
        response_framing(&msg)?;
    }

    /// A framed message followed by anything parses, and leaves exactly
    /// the trailer unread.
    #[test]
    fn trailers_stay_unread(
        r in 0usize..4,
        s in 0usize..3,
        trailer in vec(byte(), 0..64),
    ) {
        let (req, resp) = (&requests()[r], &responses()[s]);
        for (msg, parse) in [
            (req, request_framing as fn(&[u8]) -> Result<Option<usize>, String>),
            (resp, response_framing),
        ] {
            let mut input = msg.clone();
            input.extend_from_slice(&trailer);
            prop_assert_eq!(parse(&input)?, Some(msg.len()));
        }
    }
}

#[test]
fn the_seed_messages_parse_whole() {
    for msg in requests() {
        assert_eq!(request_framing(&msg), Ok(Some(msg.len())));
    }
    for msg in responses().into_iter().chain([UNFRAMED.to_vec()]) {
        assert_eq!(response_framing(&msg), Ok(Some(msg.len())));
    }
}
