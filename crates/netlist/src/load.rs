//! Loading a circuit file in the format its extension names — the one
//! loader the command-line tool and the serve daemon share. It comes in
//! two steps, [`read`] and [`parse`], so a caller can look at a file's
//! bytes before (or instead of) parsing them.

use std::fmt;
use std::io;
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

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        match self {
            Circuit::Aig(aig) => aig.num_pis(),
            Circuit::Lut(net) => net.num_pis(),
        }
    }

    /// Evaluates the primary outputs, in order, on one input
    /// assignment. Mapping preserves PIs, POs and their functions, so
    /// this agrees with `eval_pos` of the mapped network.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_pis()`.
    pub fn eval_pos(&self, inputs: &[bool]) -> Vec<bool> {
        match self {
            Circuit::Aig(aig) => aig.eval(inputs),
            Circuit::Lut(net) => net.eval_pos(inputs),
        }
    }
}

/// Why a circuit file could not be loaded; `Display` gives the
/// user-facing message.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be opened or read.
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

/// Reads the whole file at `path`. Its format is not checked yet, so
/// a missing file is reported as such whatever its extension.
pub fn read(path: &str) -> Result<Vec<u8>, LoadError> {
    std::fs::read(path).map_err(|e| LoadError::Open(path.to_string(), e))
}

/// Parses `bytes`, read from `path`, in the format [`format_of`] infers
/// from the path.
pub fn parse(path: &str, bytes: &[u8]) -> Result<Circuit, LoadError> {
    let circuit = match format_of(path)? {
        Format::AigBinary | Format::AigAscii => aiger::read(bytes).map(Circuit::Aig),
        Format::Bench => bench_fmt::read(bytes).map(Circuit::Aig),
        Format::Blif => blif::read(bytes).map(Circuit::Lut),
    };
    circuit.map_err(|e| LoadError::Parse(path.to_string(), e))
}

/// [`read`] then [`parse`].
pub fn load(path: &str) -> Result<Circuit, LoadError> {
    parse(path, &read(path)?)
}
