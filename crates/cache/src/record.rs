//! The sealed-record codec of every self-checking file the workspace
//! writes: one JSON object on one line whose last key, `sum`, is the
//! SHA-256 of the line without it. A sweep journal holds one such line
//! per round barrier; a proof-cache entry file is one.

use simgen_obs::Json;

use crate::digest::Sha256;

/// Serializes a record to its sealed line form: the payload JSON with
/// a `sum` field (SHA-256 over the payload serialization) appended.
pub fn seal(mut payload: Json) -> String {
    let body = payload.to_line();
    payload.push("sum", Json::Str(hex(&Sha256::digest(body.as_bytes()))));
    payload.to_line()
}

/// Parses and checksum-verifies one sealed line.
pub fn open_line(line: &str) -> Option<Json> {
    let json = Json::parse(line).ok()?;
    let entries = json.entries()?;
    let (last_key, last_value) = entries.last()?;
    if last_key != "sum" {
        return None;
    }
    let sum = last_value.as_str()?;
    let mut payload = Json::obj();
    for (key, value) in &entries[..entries.len() - 1] {
        payload.push(key, value.clone());
    }
    if hex(&Sha256::digest(payload.to_line().as_bytes())) != sum {
        return None;
    }
    Some(payload)
}

/// A witness as a string of `0`s and `1`s, first input first.
pub fn bits_to_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// The inverse of [`bits_to_string`]; `None` for any other character.
pub fn bits_from_string(text: &str) -> Option<Vec<bool>> {
    text.chars()
        .map(|c| match c {
            '0' => Some(false),
            '1' => Some(true),
            _ => None,
        })
        .collect()
}

/// Lowercase hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
