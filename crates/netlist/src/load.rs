//! Loading a circuit file in the format its extension names — the one
//! loader the command-line tool and the serve daemon share.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;

use crate::{aiger, bench_fmt, blif, Aig, LutNetwork, NetlistError};

/// Circuit file formats, named by extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Binary AIGER.
    AigBinary,
    /// ASCII AIGER.
    AigAscii,
    /// ISCAS BENCH.
    Bench,
    /// BLIF (LUT networks).
    Blif,
}

/// A circuit loaded from disk in either representation.
#[derive(Debug)]
pub enum Circuit {
    /// An and-inverter graph (aig/aag/bench files).
    Aig(Aig),
    /// A LUT network (blif files).
    Lut(LutNetwork),
}

impl Circuit {
    /// The LUT network, mapping an AIG with `map` (technology mapping
    /// lives above this crate).
    pub fn into_lut(self, map: impl FnOnce(&Aig) -> LutNetwork) -> LutNetwork {
        match self {
            Circuit::Aig(aig) => map(&aig),
            Circuit::Lut(net) => net,
        }
    }
}

/// Why a circuit file could not be loaded; `Display` gives the
/// user-facing message.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be opened. The I/O error keeps its kind, so
    /// a caller can tell transient failures from permanent ones.
    Open(String, io::Error),
    /// The path's extension names no supported format.
    Format(String),
    /// The file does not parse in its format.
    Parse(String, NetlistError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Open(path, e) => write!(f, "cannot open `{path}`: {e}"),
            LoadError::Format(message) => f.write_str(message),
            LoadError::Parse(path, e) => write!(f, "{path}: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Infers a format from a path's extension (case-insensitive).
pub fn format_of(path: &str) -> Result<Format, LoadError> {
    match Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        Some("aig") => Ok(Format::AigBinary),
        Some("aag") => Ok(Format::AigAscii),
        Some("bench") => Ok(Format::Bench),
        Some("blif") => Ok(Format::Blif),
        other => Err(LoadError::Format(format!(
            "cannot infer format of `{path}` (extension {other:?}); use .aig/.aag/.bench/.blif"
        ))),
    }
}

/// Opens `path` and parses it, streamed through a buffered reader, in
/// the format [`format_of`] infers. The open comes first, so a missing
/// file is reported as such whatever its extension.
pub fn load(path: &str) -> Result<Circuit, LoadError> {
    let file = File::open(path).map_err(|e| LoadError::Open(path.to_string(), e))?;
    let r = BufReader::new(file);
    let circuit = match format_of(path)? {
        Format::AigBinary | Format::AigAscii => aiger::read(r).map(Circuit::Aig),
        Format::Bench => bench_fmt::read(r).map(Circuit::Aig),
        Format::Blif => blif::read(r).map(Circuit::Lut),
    };
    circuit.map_err(|e| LoadError::Parse(path.to_string(), e))
}
