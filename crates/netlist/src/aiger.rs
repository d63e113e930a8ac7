//! AIGER file I/O (both the ASCII `aag` and binary `aig` formats).
//!
//! This is the interchange format of the benchmark suites the paper
//! evaluates on; implementing it makes the harness able to ingest real
//! EPFL/ITC'99 `.aig` files when they are available, and to persist
//! the synthetic stand-ins the workloads crate generates.
//!
//! Only the combinational subset is supported: latch declarations must
//! be zero (the paper's flow is purely combinational). Reading a file
//! with latches returns a parse error rather than silently dropping
//! sequential behaviour.

use std::io::{Read, Write};

use crate::aig::{Aig, AigLit, AigVar};
use crate::error::NetlistError;

/// Writes an AIG in the ASCII AIGER (`aag`) format, including a symbol
/// table with PI/PO names.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_ascii<W: Write>(aig: &Aig, mut w: W) -> std::io::Result<()> {
    let m = aig.num_vars() - 1;
    writeln!(
        w,
        "aag {} {} 0 {} {}",
        m,
        aig.num_pis(),
        aig.num_pos(),
        aig.num_ands()
    )?;
    for i in 0..aig.num_pis() {
        writeln!(w, "{}", (i + 1) * 2)?;
    }
    for (lit, _) in aig.pos() {
        writeln!(w, "{}", lit.0)?;
    }
    for i in 0..aig.num_ands() {
        let var = AigVar((aig.num_pis() + 1 + i) as u32);
        let (a, b) = aig.and_fanins(var);
        writeln!(w, "{} {} {}", var.0 * 2, a.0.max(b.0), a.0.min(b.0))?;
    }
    for i in 0..aig.num_pis() {
        writeln!(w, "i{i} pi{i}")?;
    }
    for (i, (_, name)) in aig.pos().iter().enumerate() {
        writeln!(w, "o{i} {name}")?;
    }
    writeln!(w, "c")?;
    writeln!(w, "{}", aig.name())?;
    Ok(())
}

/// Writes an AIG in the binary AIGER (`aig`) format with delta-encoded
/// AND nodes.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_binary<W: Write>(aig: &Aig, mut w: W) -> std::io::Result<()> {
    let m = aig.num_vars() - 1;
    writeln!(
        w,
        "aig {} {} 0 {} {}",
        m,
        aig.num_pis(),
        aig.num_pos(),
        aig.num_ands()
    )?;
    for (lit, _) in aig.pos() {
        writeln!(w, "{}", lit.0)?;
    }
    for i in 0..aig.num_ands() {
        let var = AigVar((aig.num_pis() + 1 + i) as u32);
        let lhs = var.0 * 2;
        let (a, b) = aig.and_fanins(var);
        let (hi, lo) = (a.0.max(b.0), a.0.min(b.0));
        debug_assert!(lhs > hi);
        write_leb(&mut w, lhs - hi)?;
        write_leb(&mut w, hi - lo)?;
    }
    for (i, (_, name)) in aig.pos().iter().enumerate() {
        writeln!(w, "o{i} {name}")?;
    }
    writeln!(w, "c")?;
    writeln!(w, "{}", aig.name())?;
    Ok(())
}

fn write_leb<W: Write>(w: &mut W, mut x: u32) -> std::io::Result<()> {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Upper bound (exclusive) on the variable count a header may declare.
/// Generous for every suite the harness ingests — the EPFL and ITC'99
/// circuits top out well under a million ANDs — while keeping a
/// hostile 30-byte header from making the reader allocate gigabytes.
/// With `M < 2^26`, every literal computation (`var * 2 + 1`) fits a
/// `u32` with room to spare.
pub const MAX_VARS: u32 = 1 << 26;

fn read_leb(bytes: &[u8], pos: &mut usize) -> Result<u32, NetlistError> {
    let mut x: u32 = 0;
    let mut shift = 0;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or_else(|| NetlistError::parse(0, "truncated binary and section"))?;
        *pos += 1;
        x |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
        if shift > 28 {
            return Err(NetlistError::parse(0, "leb128 delta overflows u32"));
        }
    }
}

/// Reads an AIGER file, auto-detecting ASCII (`aag`) vs binary (`aig`)
/// from the header.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input, including
/// sequential files (nonzero latch count), and wraps I/O failures.
pub fn read<R: Read>(mut r: R) -> Result<Aig, NetlistError> {
    let mut data = Vec::new();
    r.read_to_end(&mut data)
        .map_err(|e| NetlistError::parse(0, format!("io error: {e}")))?;
    let header_end = data
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| NetlistError::parse(1, "missing header line"))?;
    let header = std::str::from_utf8(&data[..header_end])
        .map_err(|_| NetlistError::parse(1, "header is not utf-8"))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 6 {
        return Err(NetlistError::parse(
            1,
            format!("header needs `fmt M I L O A`, got `{header}`"),
        ));
    }
    let fmt = fields[0];
    let nums: Vec<u32> = fields[1..6]
        .iter()
        .map(|s| {
            s.parse::<u32>()
                .map_err(|_| NetlistError::parse(1, format!("bad header number `{s}`")))
        })
        .collect::<Result<_, _>>()?;
    let (m, i, l, o, a) = (nums[0], nums[1], nums[2], nums[3], nums[4]);
    if l != 0 {
        return Err(NetlistError::parse(
            1,
            "sequential aiger files (latches) are not supported",
        ));
    }
    // Checked: a hostile header like `aag 0 4294967295 0 0 1` must not
    // wrap I+A around u32 (a debug-build panic, a silent mismatch in
    // release).
    let total = i
        .checked_add(a)
        .ok_or_else(|| NetlistError::parse(1, "header I+A overflows u32"))?;
    if m != total {
        return Err(NetlistError::parse(
            1,
            format!("header M={m} inconsistent with I+A={total}"),
        ));
    }
    if m >= MAX_VARS {
        return Err(NetlistError::parse(
            1,
            format!("header M={m} exceeds the supported maximum {MAX_VARS}"),
        ));
    }
    let body = &data[header_end + 1..];
    // Plausibility: every declared output or AND occupies at least two
    // body bytes (a digit plus newline in ASCII, two delta bytes in
    // binary; ASCII inputs likewise). Rejecting up front keeps a tiny
    // file with huge counts from driving large pre-allocations below.
    let min_len = match fmt {
        "aag" => 2 * (u64::from(i) + u64::from(o) + u64::from(a)),
        _ => 2 * (u64::from(o) + u64::from(a)),
    };
    if (body.len() as u64) < min_len {
        return Err(NetlistError::parse(
            1,
            format!(
                "body has {} bytes, too short for the declared counts",
                body.len()
            ),
        ));
    }
    match fmt {
        "aag" => read_ascii_body(body, i, o, a),
        "aig" => read_binary_body(body, i, o, a),
        other => Err(NetlistError::parse(1, format!("unknown format `{other}`"))),
    }
}

fn read_ascii_body(body: &[u8], i: u32, o: u32, a: u32) -> Result<Aig, NetlistError> {
    let text =
        std::str::from_utf8(body).map_err(|_| NetlistError::parse(0, "ascii body is not utf-8"))?;
    let mut lines = text.lines().enumerate().map(|(n, s)| (n + 2, s));
    let mut next_line = |what: &str| {
        lines
            .next()
            .ok_or_else(|| NetlistError::parse(0, format!("missing {what} line")))
    };
    let mut aig = Aig::new();
    let mut pis = Vec::with_capacity(i as usize);
    for k in 0..i {
        let (ln, s) = next_line("input")?;
        let lit: u32 = s
            .trim()
            .parse()
            .map_err(|_| NetlistError::parse(ln, format!("bad input literal `{s}`")))?;
        if lit != (k + 1) * 2 {
            return Err(NetlistError::parse(
                ln,
                format!(
                    "input literal {lit} out of order (expected {})",
                    (k + 1) * 2
                ),
            ));
        }
        pis.push(aig.add_pi());
    }
    let mut po_lits = Vec::with_capacity(o as usize);
    for _ in 0..o {
        let (ln, s) = next_line("output")?;
        let lit: u32 = s
            .trim()
            .parse()
            .map_err(|_| NetlistError::parse(ln, format!("bad output literal `{s}`")))?;
        po_lits.push(lit);
    }
    // ANDs: map file literals to our literals. With no latches and
    // in-order PIs, file vars equal our vars, so we can rebuild via a
    // translation table to benefit from strashing.
    let mut lit_map: Vec<AigLit> = Vec::with_capacity((i + a + 1) as usize);
    lit_map.push(AigLit::FALSE);
    lit_map.extend(pis.iter().copied());
    for _ in 0..a {
        let (ln, s) = next_line("and")?;
        let parts: Vec<u32> = s
            .split_whitespace()
            .map(|t| {
                t.parse()
                    .map_err(|_| NetlistError::parse(ln, format!("bad and literal `{t}`")))
            })
            .collect::<Result<_, _>>()?;
        if parts.len() != 3 {
            return Err(NetlistError::parse(ln, "and line needs three literals"));
        }
        let (lhs, r0, r1) = (parts[0], parts[1], parts[2]);
        if lhs & 1 == 1 || lhs / 2 != lit_map.len() as u32 {
            return Err(NetlistError::parse(
                ln,
                format!(
                    "and lhs {lhs} out of order (expected {})",
                    lit_map.len() * 2
                ),
            ));
        }
        if r0 >= lhs || r1 >= lhs {
            return Err(NetlistError::parse(ln, "and rhs must precede lhs"));
        }
        let f0 = translate(&lit_map, r0, ln)?;
        let f1 = translate(&lit_map, r1, ln)?;
        let out = aig.and(f0, f1);
        lit_map.push(out);
    }
    finish(&mut aig, &lit_map, &po_lits)?;
    read_symbols(&mut aig, lines.map(|(_, s)| s));
    Ok(aig)
}

fn read_binary_body(body: &[u8], i: u32, o: u32, a: u32) -> Result<Aig, NetlistError> {
    // Output literal lines are ASCII, one per line, before the binary
    // and section.
    let mut pos = 0usize;
    let mut po_lits = Vec::with_capacity(o as usize);
    for _ in 0..o {
        let line_end = body[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| NetlistError::parse(0, "truncated output section"))?;
        let s = std::str::from_utf8(&body[pos..pos + line_end])
            .map_err(|_| NetlistError::parse(0, "output line is not utf-8"))?;
        let lit: u32 = s
            .trim()
            .parse()
            .map_err(|_| NetlistError::parse(0, format!("bad output literal `{s}`")))?;
        po_lits.push(lit);
        pos += line_end + 1;
    }
    let mut aig = Aig::new();
    let mut lit_map: Vec<AigLit> = Vec::with_capacity((i + a + 1) as usize);
    lit_map.push(AigLit::FALSE);
    for _ in 0..i {
        lit_map.push(aig.add_pi());
    }
    for k in 0..a {
        let lhs = (i + 1 + k) * 2;
        let d0 = read_leb(body, &mut pos)?;
        let d1 = read_leb(body, &mut pos)?;
        let r0 = lhs
            .checked_sub(d0)
            .ok_or_else(|| NetlistError::parse(0, "delta0 exceeds lhs"))?;
        let r1 = r0
            .checked_sub(d1)
            .ok_or_else(|| NetlistError::parse(0, "delta1 exceeds rhs0"))?;
        let f0 = translate(&lit_map, r0, 0)?;
        let f1 = translate(&lit_map, r1, 0)?;
        let out = aig.and(f0, f1);
        lit_map.push(out);
    }
    finish(&mut aig, &lit_map, &po_lits)?;
    if pos < body.len() {
        if let Ok(text) = std::str::from_utf8(&body[pos..]) {
            read_symbols(&mut aig, text.lines());
        }
    }
    Ok(aig)
}

fn translate(lit_map: &[AigLit], file_lit: u32, line: usize) -> Result<AigLit, NetlistError> {
    let var = (file_lit / 2) as usize;
    let base = lit_map
        .get(var)
        .copied()
        .ok_or_else(|| NetlistError::parse(line, format!("literal {file_lit} out of range")))?;
    Ok(if file_lit & 1 == 1 { !base } else { base })
}

fn finish(aig: &mut Aig, lit_map: &[AigLit], po_lits: &[u32]) -> Result<(), NetlistError> {
    for (idx, &lit) in po_lits.iter().enumerate() {
        let l = translate(lit_map, lit, 0)?;
        aig.add_po(l, format!("po{idx}"));
    }
    Ok(())
}

fn read_symbols<'a>(aig: &mut Aig, lines: impl Iterator<Item = &'a str>) {
    let mut po_names: Vec<(usize, String)> = Vec::new();
    let mut comment = false;
    let mut comment_text = String::new();
    for line in lines {
        if comment {
            if !line.is_empty() {
                if !comment_text.is_empty() {
                    comment_text.push(' ');
                }
                comment_text.push_str(line.trim());
            }
            continue;
        }
        if line.trim() == "c" {
            comment = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix('o') {
            if let Some((idx_s, name)) = rest.split_once(' ') {
                if let Ok(idx) = idx_s.parse::<usize>() {
                    po_names.push((idx, name.to_string()));
                }
            }
        }
        // Input symbols (`iN name`) are accepted and ignored: our Aig
        // does not store per-PI names.
    }
    if !po_names.is_empty() {
        let mut pos: Vec<(AigLit, String)> = aig.pos().to_vec();
        for (idx, name) in po_names {
            if idx < pos.len() {
                pos[idx].1 = name;
            }
        }
        *aig = aig.with_renamed_pos(pos);
    }
    if !comment_text.is_empty() {
        aig.set_name(comment_text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Aig {
        let mut g = Aig::with_name("sample");
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.xor(a, b);
        let m = g.mux(c, x, a);
        g.add_po(m, "out0");
        g.add_po(!x, "out1");
        g
    }

    fn assert_equivalent(g1: &Aig, g2: &Aig) {
        assert_eq!(g1.num_pis(), g2.num_pis());
        assert_eq!(g1.num_pos(), g2.num_pos());
        for m in 0..(1u32 << g1.num_pis()) {
            let inputs: Vec<bool> = (0..g1.num_pis()).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(g1.eval(&inputs), g2.eval(&inputs), "mismatch at {m:b}");
        }
    }

    #[test]
    fn ascii_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_ascii(&g, &mut buf).unwrap();
        let back = read(&buf[..]).unwrap();
        assert_equivalent(&g, &back);
        assert_eq!(back.pos()[0].1, "out0");
        assert_eq!(back.pos()[1].1, "out1");
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let back = read(&buf[..]).unwrap();
        assert_equivalent(&g, &back);
    }

    #[test]
    fn binary_roundtrip_large_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut g = Aig::with_name("rand");
        let pis = g.add_pis(8);
        let mut pool = pis.clone();
        for _ in 0..200 {
            let a = pool[rng.gen_range(0..pool.len())];
            let b = pool[rng.gen_range(0..pool.len())];
            let a = if rng.gen() { a } else { !a };
            let b = if rng.gen() { b } else { !b };
            pool.push(g.and(a, b));
        }
        for k in 0..6 {
            g.add_po(pool[pool.len() - 1 - k], format!("o{k}"));
        }
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let back = read(&buf[..]).unwrap();
        assert_equivalent(&g, &back);
        let mut buf = Vec::new();
        write_ascii(&g, &mut buf).unwrap();
        let back = read(&buf[..]).unwrap();
        assert_equivalent(&g, &back);
    }

    #[test]
    fn rejects_latches() {
        let text = "aag 1 0 1 0 0\n2 3\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("latches"));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read(&b"bogus\n"[..]).is_err());
        assert!(read(&b"aag 5 1 0 1\n"[..]).is_err());
        assert!(read(&b"aag 5 1 0 1 1\n"[..]).is_err()); // M != I+A
    }

    #[test]
    fn rejects_out_of_order_and() {
        // lhs literal 4 but expected 6 after 2 pis... craft: I=2, A=1,
        // lhs must be 6; give 8.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n8 2 4\n";
        let err = read(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of order"));
    }

    #[test]
    fn constant_output() {
        let mut g = Aig::new();
        let _ = g.add_pi();
        g.add_po(AigLit::TRUE, "t");
        g.add_po(AigLit::FALSE, "f");
        let mut buf = Vec::new();
        write_ascii(&g, &mut buf).unwrap();
        let back = read(&buf[..]).unwrap();
        assert_eq!(back.eval(&[false]), vec![true, false]);
    }

    #[test]
    fn comment_restores_name() {
        let g = sample();
        let mut buf = Vec::new();
        write_ascii(&g, &mut buf).unwrap();
        let back = read(&buf[..]).unwrap();
        assert_eq!(back.name(), "sample");
    }
}
