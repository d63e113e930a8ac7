//! Compiled simulation kernels.
//!
//! Interpreting a LUT's on-set cover cube by cube costs a nested loop
//! (cubes × fanins) per 64-pattern word. This module removes that
//! interpretation overhead with a one-time compilation pass: every
//! node is translated into a `NodeKernel` — either a single fused
//! fast-path operation (BUF/NOT, ten two-input gates, MUX) or a flat
//! tape of bitwise `Op`s obtained by recursive Shannon cofactoring
//! of the truth table (`f = s ? f|ₛ₌₁ : f|ₛ₌₀`, memoized on cofactor
//! bits so shared subfunctions are computed once).
//!
//! Execution is cache-blocked: the pattern words are processed in
//! blocks of `BLOCK_WORDS` (64), with all nodes evaluated per block, so
//! the fanin lanes a node reads are still resident in cache. Within a
//! block each kernel step runs [`SimdWord`]-wide — 1, 4 or 8 words per
//! operation depending on the active [`SimdLevel`] — with ragged block
//! tails finished scalar.
//!
//! Simulation runs on the calling thread over one flat lane table per
//! call: the lane of `order[p]` is words `p·words..(p+1)·words`. A
//! levelized order lists every fanin before its node, so splitting the
//! table at the node's lane lends that lane mutably and every fanin
//! lane shared. Shannon-tape intermediates live in stack register
//! files.

use std::sync::atomic::{AtomicU64, Ordering};

use simgen_netlist::{LutNetwork, NodeId, NodeKind, TruthTable};

use crate::patterns::PatternSet;
use crate::simd::{active_simd_level, SimdLevel, SimdWord, U64x4, U64x8, Unroll};

/// Words processed per cache block. 64 words (512 B per lane) keeps a
/// couple hundred hot lanes inside L2 while giving every node eight
/// full 512-bit pack iterations per block — wide enough that the
/// per-node fixed costs (opcode dispatch, lane lookups, slice setup)
/// amortize instead of drowning the SIMD win.
pub(crate) const BLOCK_WORDS: usize = 64;

/// Scratch registers a Shannon tape may use. Every tape evaluates
/// pack by pack with each intermediate held in a `[W; REG_TAPE_MAX]`
/// on the stack and its result stored straight to the node lane;
/// [`CompiledNet::compile`] asserts that no tape needs more.
const REG_TAPE_MAX: usize = 32;

/// Pack columns evaluated per op-list walk of a tape, amortizing op
/// decode without spilling the register file out of L1
/// (`REG_TAPE_MAX × TAPE_UNROLL` packs ≤ 8 KiB at 512-bit).
const TAPE_UNROLL: usize = 4;

/// A fused two-input bitwise operation. `AndNot`/`OrNot` absorb one
/// input complement so every 2-support function that is not a
/// constant, copy or inverter compiles to exactly one op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `a & b`
    And,
    /// `a | b`
    Or,
    /// `a ^ b`
    Xor,
    /// `!(a & b)`
    Nand,
    /// `!(a | b)`
    Nor,
    /// `!(a ^ b)`
    Xnor,
    /// `a & !b`
    AndNot,
    /// `a | !b`
    OrNot,
}

impl BinOp {
    /// Applies the fused op to one pack.
    #[inline(always)]
    fn apply_w<W: SimdWord>(self, a: W, b: W) -> W {
        match self {
            BinOp::And => a.and(b),
            BinOp::Or => a.or(b),
            BinOp::Xor => a.xor(b),
            BinOp::Nand => a.and(b).not(),
            BinOp::Nor => a.or(b).not(),
            BinOp::Xnor => a.xor(b).not(),
            BinOp::AndNot => a.and(b.not()),
            BinOp::OrNot => a.or(b.not()),
        }
    }

    /// Applies the fused op over whole slices, one [`SimdWord`] pack
    /// per step. The `self` dispatch happens once per slice, keeping
    /// the inner loops monomorphic.
    #[inline(always)]
    fn apply_slices<W: SimdWord>(self, a: &[u64], b: &[u64], out: &mut [u64]) {
        match self {
            BinOp::And => map2::<W>(a, b, out, |x, y| x.and(y)),
            BinOp::Or => map2::<W>(a, b, out, |x, y| x.or(y)),
            BinOp::Xor => map2::<W>(a, b, out, |x, y| x.xor(y)),
            BinOp::Nand => map2::<W>(a, b, out, |x, y| x.and(y).not()),
            BinOp::Nor => map2::<W>(a, b, out, |x, y| x.or(y).not()),
            BinOp::Xnor => map2::<W>(a, b, out, |x, y| x.xor(y).not()),
            BinOp::AndNot => map2::<W>(a, b, out, |x, y| x.and(y.not())),
            BinOp::OrNot => map2::<W>(a, b, out, |x, y| x.or(y.not())),
        }
    }
}

/// `out[i] = f(a[i])`, one pack per step. Slice lengths must match and
/// be multiples of `W::LANES` (the block loop guarantees this).
#[inline(always)]
fn map1<W: SimdWord>(a: &[u64], out: &mut [u64], f: impl Fn(W) -> W) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(out.len() % W::LANES, 0);
    let mut i = 0;
    while i < out.len() {
        f(W::load(&a[i..])).store(&mut out[i..]);
        i += W::LANES;
    }
}

/// `out[i] = f(a[i], b[i])`, one pack per step.
#[inline(always)]
fn map2<W: SimdWord>(a: &[u64], b: &[u64], out: &mut [u64], f: impl Fn(W, W) -> W) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(b.len(), out.len());
    debug_assert_eq!(out.len() % W::LANES, 0);
    let mut i = 0;
    while i < out.len() {
        f(W::load(&a[i..]), W::load(&b[i..])).store(&mut out[i..]);
        i += W::LANES;
    }
}

/// `out[i] = f(a[i], b[i], c[i])`, one pack per step.
#[inline(always)]
fn map3<W: SimdWord>(a: &[u64], b: &[u64], c: &[u64], out: &mut [u64], f: impl Fn(W, W, W) -> W) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(b.len(), out.len());
    debug_assert_eq!(c.len(), out.len());
    debug_assert_eq!(out.len() % W::LANES, 0);
    let mut i = 0;
    while i < out.len() {
        f(W::load(&a[i..]), W::load(&b[i..]), W::load(&c[i..])).store(&mut out[i..]);
        i += W::LANES;
    }
}

/// Fills `out` with a constant pack.
#[inline(always)]
fn fill_w<W: SimdWord>(out: &mut [u64], v: W) {
    debug_assert_eq!(out.len() % W::LANES, 0);
    let mut i = 0;
    while i < out.len() {
        v.store(&mut out[i..]);
        i += W::LANES;
    }
}

/// Classifies a genuine 2-support function into a fused op plus the
/// operand order `(a_var, b_var)` (indices into the support pair).
///
/// `t2` is the 4-bit truth table over `(v1, v0)` with minterm index
/// `(b1 << 1) | b0`. Functions that do not depend on both variables
/// never reach this classifier.
fn classify_binary(t2: u8) -> (BinOp, bool) {
    match t2 {
        0b1000 => (BinOp::And, false),
        0b1110 => (BinOp::Or, false),
        0b0110 => (BinOp::Xor, false),
        0b0111 => (BinOp::Nand, false),
        0b0001 => (BinOp::Nor, false),
        0b1001 => (BinOp::Xnor, false),
        0b0010 => (BinOp::AndNot, false),
        0b0100 => (BinOp::AndNot, true),
        0b1011 => (BinOp::OrNot, false),
        0b1101 => (BinOp::OrNot, true),
        _ => unreachable!("t2 {t2:04b} does not depend on both variables"),
    }
}

/// One tape instruction. Register encoding: `reg < num_nodes` reads
/// the lane of that node (always a fanin of the node being compiled);
/// `reg >= num_nodes` addresses transient scratch register
/// `reg - num_nodes`. Destinations are always scratch and strictly
/// SSA: each op writes a register larger than any it reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Op {
    kind: OpKind,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    Const0,
    Const1,
    Not,
    Binary(BinOp),
    /// `dst = (a & b) | (!a & c)` — the Shannon recombination step.
    Mux,
}

/// The compiled evaluation strategy of one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeKernel {
    /// Copy the PI lane from the pattern set.
    Pi { index: u32 },
    /// Constant function (degenerate LUT).
    Const { value: bool },
    /// Buffer or inverter of one fanin lane.
    Unary { negate: bool, a: u32 },
    /// One fused two-input gate over fanin lanes.
    Binary { op: BinOp, a: u32, b: u32 },
    /// 2:1 multiplexer over three fanin lanes: `s ? t : e`.
    Mux { s: u32, t: u32, e: u32 },
    /// General function: run ops `start..end` of the shared tape, the
    /// node lane is scratch register `out`.
    Tape { start: u32, end: u32, out: u32 },
}

/// Shape breakdown of a compiled kernel set: how many nodes landed on
/// each lowering path and how big the Shannon tapes are. Produced by
/// [`CompiledNet::summary`] for run reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelSummary {
    /// Nodes compiled (PIs included).
    pub nodes: u64,
    /// Primary-input kernels.
    pub pis: u64,
    /// Constant kernels.
    pub consts: u64,
    /// Fast-path fused kernels (unary, binary, mux).
    pub fused: u64,
    /// Nodes lowered to Shannon tapes.
    pub tape_nodes: u64,
    /// Total tape instructions.
    pub tape_ops: u64,
    /// Scratch registers needed by the widest tape.
    pub scratch: u64,
}

/// Memory diagnostics of one [`CompiledNet`], the simulation side of
/// the memory governor's footprint estimate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Always 0: simulation runs on the calling thread. It exists only
    /// for `e2ebench/src/api.rs`, the benchmark's frozen door into the
    /// library.
    pub tasks: u64,
    /// Peak bytes of lane storage a single `simulate_lanes` call
    /// allocated: `order.len() × num_patterns.div_ceil(64) × 8`, the
    /// same at every SIMD level. The simulation side of per-job memory
    /// accounting; a high-water mark, not a running sum.
    pub lane_bytes: u64,
}

/// A network compiled to per-node simulation kernels.
#[derive(Debug)]
pub struct CompiledNet {
    num_nodes: usize,
    kernels: Vec<NodeKernel>,
    /// Concatenated Shannon tapes of every [`NodeKernel::Tape`] node.
    ops: Vec<Op>,
    /// Scratch registers needed by the widest tape.
    num_scratch: usize,
    /// Peak lane-table allocation of one `simulate_lanes` call.
    sim_lane_bytes: AtomicU64,
}

/// The lanes a node may read while its own lane is being written: the
/// head of the flat lane table up to that lane, which holds every
/// fanin's lane because the order is levelized.
struct Fanins<'a> {
    /// Lanes of `order[..p]` for the node at position `p`.
    done: &'a [u64],
    /// Position of each node in the order (`u32::MAX` outside it).
    pos: &'a [u32],
    words: usize,
}

impl Fanins<'_> {
    /// Words `[x0, x1)` of the lane of `node`.
    #[inline(always)]
    fn lane(&self, node: u32, x0: usize, x1: usize) -> &[u64] {
        let base = self.pos[node as usize] as usize * self.words;
        &self.done[base + x0..base + x1]
    }
}

/// Stack register files of the tape path for packs of `W`, zeroed once
/// per simulation call. Tapes are SSA, so a register is always written
/// before it is read and a stale value is never observed.
struct TapeRegs<W: SimdWord> {
    pack: [W; REG_TAPE_MAX],
    column: [Unroll<W, TAPE_UNROLL>; REG_TAPE_MAX],
}

impl<W: SimdWord> TapeRegs<W> {
    #[inline(always)]
    fn new() -> Self {
        TapeRegs {
            pack: [W::zero(); REG_TAPE_MAX],
            column: [Unroll::zero(); REG_TAPE_MAX],
        }
    }
}

/// Tape-construction state for one node.
struct TapeBuilder<'a> {
    ops: &'a mut Vec<Op>,
    fanins: &'a [NodeId],
    num_nodes: u32,
    next_scratch: u32,
    /// Memoized cofactors: truth-table bits → register holding them.
    memo: std::collections::HashMap<u64, u32>,
}

impl TapeBuilder<'_> {
    fn fresh(&mut self) -> u32 {
        let reg = self.num_nodes + self.next_scratch;
        self.next_scratch += 1;
        reg
    }

    fn push(&mut self, kind: OpKind, dst: u32, a: u32, b: u32, c: u32) {
        self.ops.push(Op { kind, dst, a, b, c });
    }

    fn fanin_reg(&self, var: usize) -> u32 {
        self.fanins[var].index() as u32
    }

    /// Emits ops computing `tt` and returns the register holding it.
    fn emit(&mut self, tt: &TruthTable) -> u32 {
        if let Some(&reg) = self.memo.get(&tt.bits()) {
            return reg;
        }
        let sup = tt.support();
        let reg = match sup.len() {
            0 => {
                let d = self.fresh();
                let kind = if tt.eval(0) {
                    OpKind::Const1
                } else {
                    OpKind::Const0
                };
                self.push(kind, d, 0, 0, 0);
                d
            }
            1 => {
                let v = sup[0];
                let a = self.fanin_reg(v);
                if tt.eval(1 << v) {
                    a
                } else {
                    let d = self.fresh();
                    self.push(OpKind::Not, d, a, 0, 0);
                    d
                }
            }
            2 => {
                let (v0, v1) = (sup[0], sup[1]);
                let mut t2 = 0u8;
                for m2 in 0..4u64 {
                    let m = ((m2 & 1) << v0) | ((m2 >> 1) << v1);
                    if tt.eval(m) {
                        t2 |= 1 << m2;
                    }
                }
                let (op, swapped) = classify_binary(t2);
                let (ra, rb) = if swapped {
                    (self.fanin_reg(v1), self.fanin_reg(v0))
                } else {
                    (self.fanin_reg(v0), self.fanin_reg(v1))
                };
                let d = self.fresh();
                self.push(OpKind::Binary(op), d, ra, rb, 0);
                d
            }
            _ => {
                // Shannon decomposition on the highest support
                // variable; both cofactors shed it, so recursion
                // terminates, and the memo collapses shared cofactors.
                let v = *sup.last().expect("non-empty support");
                let r0 = self.emit(&tt.cofactor0(v));
                let r1 = self.emit(&tt.cofactor1(v));
                let d = self.fresh();
                self.push(OpKind::Mux, d, self.fanin_reg(v), r1, r0);
                d
            }
        };
        self.memo.insert(tt.bits(), reg);
        reg
    }
}

/// Detects `tt == s ? t : e` over its 3-variable support, returning
/// the chosen (s, t, e) variable indices.
fn detect_mux(tt: &TruthTable, sup: &[usize]) -> Option<(usize, usize, usize)> {
    debug_assert_eq!(sup.len(), 3);
    for &s in sup {
        let rest: Vec<usize> = sup.iter().copied().filter(|&v| v != s).collect();
        for (t, e) in [(rest[0], rest[1]), (rest[1], rest[0])] {
            let mux = TruthTable::from_fn(tt.arity(), |m| {
                if (m >> s) & 1 == 1 {
                    (m >> t) & 1 == 1
                } else {
                    (m >> e) & 1 == 1
                }
            });
            if mux.bits() == tt.bits() {
                return Some((s, t, e));
            }
        }
    }
    None
}

impl CompiledNet {
    /// Compiles every node of `net` into its simulation kernel.
    pub fn compile(net: &LutNetwork) -> Self {
        let num_nodes = net.len();
        let mut kernels = Vec::with_capacity(num_nodes);
        let mut ops: Vec<Op> = Vec::new();
        let mut num_scratch = 0usize;
        for id in net.node_ids() {
            let kernel = match net.kind(id) {
                NodeKind::Pi { index } => NodeKernel::Pi {
                    index: *index as u32,
                },
                NodeKind::Lut { fanins, tt } => {
                    let sup = tt.support();
                    match sup.len() {
                        0 => NodeKernel::Const { value: tt.eval(0) },
                        1 => NodeKernel::Unary {
                            negate: !tt.eval(1 << sup[0]),
                            a: fanins[sup[0]].index() as u32,
                        },
                        2 => {
                            let (v0, v1) = (sup[0], sup[1]);
                            let mut t2 = 0u8;
                            for m2 in 0..4u64 {
                                let m = ((m2 & 1) << v0) | ((m2 >> 1) << v1);
                                if tt.eval(m) {
                                    t2 |= 1 << m2;
                                }
                            }
                            let (op, swapped) = classify_binary(t2);
                            let (a, b) = if swapped { (v1, v0) } else { (v0, v1) };
                            NodeKernel::Binary {
                                op,
                                a: fanins[a].index() as u32,
                                b: fanins[b].index() as u32,
                            }
                        }
                        3 if detect_mux(tt, &sup).is_some() => {
                            let (s, t, e) = detect_mux(tt, &sup).expect("just matched");
                            NodeKernel::Mux {
                                s: fanins[s].index() as u32,
                                t: fanins[t].index() as u32,
                                e: fanins[e].index() as u32,
                            }
                        }
                        _ => {
                            let start = ops.len() as u32;
                            let mut builder = TapeBuilder {
                                ops: &mut ops,
                                fanins,
                                num_nodes: num_nodes as u32,
                                next_scratch: 0,
                                memo: std::collections::HashMap::new(),
                            };
                            let out = builder.emit(tt);
                            num_scratch = num_scratch.max(builder.next_scratch as usize);
                            let end = ops.len() as u32;
                            debug_assert!(out >= num_nodes as u32, "tape result is scratch");
                            NodeKernel::Tape {
                                start,
                                end,
                                out: out - num_nodes as u32,
                            }
                        }
                    }
                }
            };
            kernels.push(kernel);
        }
        // A tape of a LUT of at most 6 inputs (`MAX_ARITY`) needs at
        // most 29 registers. Shannon splits on the highest support
        // variable while the support has 3 or more variables, so at
        // most 1 + 2 + 4 + 8 = 15 muxes exist, and all 15 only when the
        // deepest ones split x2 off functions of exactly x0..x2. Their
        // leaves are then functions of x0 and x1, 14 of which are not a
        // bare literal (a literal reads the fanin lane, no register).
        // With M ≤ 14 muxes there are at most M + 1 leaves, so
        // 2M + 1 ≤ 29 registers.
        assert!(
            num_scratch <= REG_TAPE_MAX,
            "a tape needs {num_scratch} scratch registers, more than {REG_TAPE_MAX}"
        );
        CompiledNet {
            num_nodes,
            kernels,
            ops,
            num_scratch,
            sim_lane_bytes: AtomicU64::new(0),
        }
    }

    /// Number of nodes this kernel set was compiled for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total tape instructions across all general nodes (fast-path
    /// nodes contribute none).
    pub fn tape_len(&self) -> usize {
        self.ops.len()
    }

    /// Counts each kernel kind — the shape breakdown run reports carry
    /// in their `sim.kernel` section.
    pub fn summary(&self) -> KernelSummary {
        let mut summary = KernelSummary {
            nodes: self.num_nodes as u64,
            tape_ops: self.ops.len() as u64,
            scratch: self.num_scratch as u64,
            ..KernelSummary::default()
        };
        for kernel in &self.kernels {
            match kernel {
                NodeKernel::Pi { .. } => summary.pis += 1,
                NodeKernel::Const { .. } => summary.consts += 1,
                NodeKernel::Unary { .. } | NodeKernel::Binary { .. } | NodeKernel::Mux { .. } => {
                    summary.fused += 1
                }
                NodeKernel::Tape { .. } => summary.tape_nodes += 1,
            }
        }
        summary
    }

    /// Memory diagnostics accumulated by
    /// [`CompiledNet::simulate_lanes`] calls on this net.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            tasks: 0,
            lane_bytes: self.sim_lane_bytes.load(Ordering::Relaxed),
        }
    }

    /// Simulates `patterns` over the nodes listed in `order` (which
    /// must be topologically sorted and closed under fanins, e.g. a
    /// [`simgen_netlist::levels::levelized_order`] of a fanin cone),
    /// at the process-wide [`active_simd_level`].
    ///
    /// Returns one flat lane table: with `words =
    /// patterns.num_words()`, the lane of `order[p]` is
    /// `table[p * words..(p + 1) * words]`, with tail bits beyond
    /// `patterns.num_patterns()` masked to zero.
    pub fn simulate_lanes(&self, patterns: &PatternSet, order: &[NodeId]) -> Vec<u64> {
        self.simulate_lanes_at(patterns, order, active_simd_level())
    }

    /// [`CompiledNet::simulate_lanes`] with an explicit SIMD width —
    /// the hook differential tests and the widening benchmark use to
    /// pin a level regardless of detection or `SIMGEN_SIMD`.
    ///
    /// Every word of every lane is computed by exactly one
    /// deterministic expression, so the result is byte-identical for
    /// any `level`.
    pub fn simulate_lanes_at(
        &self,
        patterns: &PatternSet,
        order: &[NodeId],
        level: SimdLevel,
    ) -> Vec<u64> {
        let words = patterns.num_words();
        let mut table = vec![0u64; order.len() * words];
        self.sim_lane_bytes
            .fetch_max((table.len() * 8) as u64, Ordering::Relaxed);
        if words == 0 {
            return table;
        }
        let mut pos = vec![u32::MAX; self.num_nodes];
        for (p, &id) in order.iter().enumerate() {
            pos[id.index()] = p as u32;
        }
        self.execute(patterns, &mut table, order, &pos, level);
        // Mask the tail of the final global word so signatures stay
        // comparable; PI lanes inherit the mask from the pattern set.
        let mask = tail_mask(patterns.num_patterns());
        if mask != u64::MAX {
            for lane in table.chunks_exact_mut(words) {
                lane[words - 1] &= mask;
            }
        }
        table
    }

    /// Executes every word of the lane table at `level`. On x86-64 the
    /// wide levels route through `#[target_feature]` functions when
    /// the CPU has the feature, and fall back to the portable pack code
    /// when it does not (a forced `SIMGEN_SIMD=wide512` on an AVX2
    /// machine still computes the same bytes, just without 512-bit
    /// instructions).
    #[allow(unsafe_code)]
    fn execute(
        &self,
        patterns: &PatternSet,
        table: &mut [u64],
        order: &[NodeId],
        pos: &[u32],
        level: SimdLevel,
    ) {
        match level {
            SimdLevel::Scalar => self.execute_w::<u64>(patterns, table, order, pos),
            SimdLevel::Wide256 => {
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: avx2 confirmed present at runtime.
                    return unsafe { self.execute_avx2(patterns, table, order, pos) };
                }
                self.execute_w::<U64x4>(patterns, table, order, pos)
            }
            SimdLevel::Wide512 => {
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: avx512f confirmed present at runtime.
                    return unsafe { self.execute_avx512(patterns, table, order, pos) };
                }
                self.execute_w::<U64x8>(patterns, table, order, pos)
            }
        }
    }

    /// `execute_w::<U64x4>` compiled with AVX2 enabled, turning the
    /// portable 4-lane array loops into `ymm` instructions. Calling it
    /// is only sound on a CPU with AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn execute_avx2(
        &self,
        patterns: &PatternSet,
        table: &mut [u64],
        order: &[NodeId],
        pos: &[u32],
    ) {
        self.execute_w::<U64x4>(patterns, table, order, pos)
    }

    /// `execute_w::<U64x8>` compiled with AVX-512F enabled. Calling it
    /// is only sound on a CPU with AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn execute_avx512(
        &self,
        patterns: &PatternSet,
        table: &mut [u64],
        order: &[NodeId],
        pos: &[u32],
    ) {
        self.execute_w::<U64x8>(patterns, table, order, pos)
    }

    /// Cache-blocked execution of every lane word, `W::LANES` words
    /// per step. A block tail shorter than a pack finishes scalar —
    /// only the last block can be ragged, so the overwhelming majority
    /// of words go through the wide path.
    ///
    /// `#[inline(always)]` (with the whole call chain below it) is
    /// what lets the `#[target_feature]` functions propagate their
    /// enabled features into these loops.
    #[inline(always)]
    fn execute_w<W: SimdWord>(
        &self,
        patterns: &PatternSet,
        table: &mut [u64],
        order: &[NodeId],
        pos: &[u32],
    ) {
        let words = patterns.num_words();
        let mut regs = TapeRegs::<W>::new();
        let mut tail_regs = TapeRegs::<u64>::new();
        let mut b0 = 0;
        while b0 < words {
            let b1 = (b0 + BLOCK_WORDS).min(words);
            let bv = b0 + (b1 - b0) / W::LANES * W::LANES;
            for (p, &id) in order.iter().enumerate() {
                let (done, rest) = table.split_at_mut(p * words);
                let fanins = Fanins { done, pos, words };
                if bv > b0 {
                    self.exec_node_w(patterns, &fanins, &mut regs, id, b0, &mut rest[b0..bv]);
                }
                if b1 > bv {
                    self.exec_node_w(patterns, &fanins, &mut tail_regs, id, bv, &mut rest[bv..b1]);
                }
            }
            b0 = b1;
        }
    }

    /// Evaluates one node's kernel into `dst`, its lane's words
    /// `[x0, x0 + dst.len())`, whose length is a multiple of
    /// `W::LANES`.
    #[inline(always)]
    fn exec_node_w<W: SimdWord>(
        &self,
        patterns: &PatternSet,
        fanins: &Fanins,
        regs: &mut TapeRegs<W>,
        id: NodeId,
        x0: usize,
        dst: &mut [u64],
    ) {
        let x1 = x0 + dst.len();
        let lane = move |node: u32| fanins.lane(node, x0, x1);
        match self.kernels[id.index()] {
            NodeKernel::Pi { index } => {
                dst.copy_from_slice(&patterns.lane(index as usize)[x0..x1]);
            }
            NodeKernel::Const { value } => {
                fill_w::<W>(dst, if value { W::ones() } else { W::zero() });
            }
            NodeKernel::Unary { negate: true, a } => map1::<W>(lane(a), dst, |x| x.not()),
            NodeKernel::Unary { negate: false, a } => dst.copy_from_slice(lane(a)),
            NodeKernel::Binary { op, a, b } => op.apply_slices::<W>(lane(a), lane(b), dst),
            NodeKernel::Mux { s, t, e } => map3::<W>(lane(s), lane(t), lane(e), dst, W::mux),
            NodeKernel::Tape { start, end, out } => {
                // Columns are `TAPE_UNROLL` packs wide so one walk of
                // the op list (decode, operand resolution) is amortized
                // over four vector steps.
                let n = self.num_nodes as u32;
                let ops = &self.ops[start as usize..end as usize];
                let stride = W::LANES * TAPE_UNROLL;
                let mut x = 0;
                while x + stride <= dst.len() {
                    eval_tape_column(fanins, ops, n, &mut regs.column, out, x0 + x)
                        .store(&mut dst[x..]);
                    x += stride;
                }
                while x < dst.len() {
                    eval_tape_column(fanins, ops, n, &mut regs.pack, out, x0 + x)
                        .store(&mut dst[x..]);
                    x += W::LANES;
                }
            }
        }
    }
}

/// One column of a tape: evaluates every op over words
/// `[x, x + W::LANES)` with intermediates in `regs` and returns
/// register `out`. Tapes are SSA — `TapeBuilder` only emits reads of
/// registers an earlier op wrote, and `out` is the last op's
/// destination — so no register is read before this column wrote it.
#[inline(always)]
fn eval_tape_column<W: SimdWord>(
    fanins: &Fanins,
    ops: &[Op],
    n: u32,
    regs: &mut [W; REG_TAPE_MAX],
    out: u32,
    x: usize,
) -> W {
    for op in ops {
        macro_rules! rd {
            ($reg:expr) => {{
                let reg = $reg;
                if reg < n {
                    W::load(fanins.lane(reg, x, x + W::LANES))
                } else {
                    regs[(reg - n) as usize]
                }
            }};
        }
        let v = match op.kind {
            OpKind::Const0 => W::zero(),
            OpKind::Const1 => W::ones(),
            OpKind::Not => rd!(op.a).not(),
            OpKind::Binary(bin) => bin.apply_w(rd!(op.a), rd!(op.b)),
            OpKind::Mux => W::mux(rd!(op.a), rd!(op.b), rd!(op.c)),
        };
        regs[(op.dst - n) as usize] = v;
    }
    regs[out as usize]
}

/// Mask covering the valid bits of the last signature word.
pub(crate) fn tail_mask(num_patterns: usize) -> u64 {
    let rem = num_patterns % 64;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use simgen_netlist::levels::levelized_order;

    fn random_network(seed: u64, pis: usize, luts: usize, max_k: usize) -> LutNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = LutNetwork::new();
        let mut pool: Vec<NodeId> = (0..pis).map(|i| net.add_pi(format!("p{i}"))).collect();
        for _ in 0..luts {
            let k = rng.gen_range(1..=max_k).min(pool.len());
            let mut fanins = Vec::with_capacity(k);
            while fanins.len() < k {
                let cand = pool[rng.gen_range(0..pool.len())];
                if !fanins.contains(&cand) {
                    fanins.push(cand);
                }
            }
            let tt = TruthTable::random(fanins.len(), &mut rng);
            pool.push(net.add_lut(fanins, tt).unwrap());
        }
        net.add_po(*pool.last().unwrap(), "f");
        net
    }

    fn all_nodes(net: &LutNetwork) -> Vec<NodeId> {
        net.node_ids().collect()
    }

    #[test]
    fn compiled_lanes_match_scalar_eval() {
        for (seed, max_k) in [(1u64, 3), (2, 4), (3, 6), (4, 6)] {
            let net = random_network(seed, 6, 40, max_k);
            let kernel = CompiledNet::compile(&net);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed + 100);
            let patterns = PatternSet::random(6, 200, &mut rng);
            let words = patterns.num_words();
            let lanes = kernel.simulate_lanes(&patterns, &all_nodes(&net));
            for p in 0..200 {
                let scalar = net.eval(&patterns.vector(p));
                for id in net.node_ids() {
                    let bit = (lanes[id.index() * words + p / 64] >> (p % 64)) & 1 == 1;
                    assert_eq!(bit, scalar[id.index()], "seed {seed} node {id} pat {p}");
                }
            }
        }
    }

    #[test]
    fn fast_paths_cover_expected_shapes() {
        let mut net = LutNetwork::new();
        let a = net.add_pi("a");
        let b = net.add_pi("b");
        let c = net.add_pi("c");
        let buf = net.add_lut(vec![a], TruthTable::buf1()).unwrap();
        let inv = net.add_lut(vec![a], TruthTable::not1()).unwrap();
        let and = net.add_lut(vec![a, b], TruthTable::and2()).unwrap();
        // s ? t : e over (c, a, b): bits where c picks a else b.
        let mux_tt = TruthTable::from_fn(3, |m| {
            if (m >> 2) & 1 == 1 {
                m & 1 == 1
            } else {
                (m >> 1) & 1 == 1
            }
        });
        let mux = net.add_lut(vec![a, b, c], mux_tt).unwrap();
        net.add_po(mux, "m");
        let kernel = CompiledNet::compile(&net);
        assert!(matches!(
            kernel.kernels[buf.index()],
            NodeKernel::Unary { negate: false, .. }
        ));
        assert!(matches!(
            kernel.kernels[inv.index()],
            NodeKernel::Unary { negate: true, .. }
        ));
        assert!(matches!(
            kernel.kernels[and.index()],
            NodeKernel::Binary { op: BinOp::And, .. }
        ));
        assert!(matches!(
            kernel.kernels[mux.index()],
            NodeKernel::Mux { .. }
        ));
        assert_eq!(kernel.tape_len(), 0, "all nodes took fast paths");
    }

    #[test]
    fn every_three_input_function_compiles_correctly() {
        // Exhaustive over all 256 3-input functions: fast paths,
        // degenerate supports and Shannon tapes all agree with eval.
        let vectors: Vec<Vec<bool>> = (0..8u32)
            .map(|m| (0..3).map(|i| (m >> i) & 1 == 1).collect())
            .collect();
        let patterns = PatternSet::from_vectors(3, &vectors);
        for bits in 0..256u64 {
            let mut net = LutNetwork::new();
            let pis: Vec<NodeId> = (0..3).map(|i| net.add_pi(format!("p{i}"))).collect();
            let tt = TruthTable::from_bits(3, bits).unwrap();
            let f = net.add_lut(pis, tt).unwrap();
            net.add_po(f, "f");
            let kernel = CompiledNet::compile(&net);
            let lanes = kernel.simulate_lanes(&patterns, &all_nodes(&net));
            for (m, v) in vectors.iter().enumerate() {
                let expect = net.eval(v)[f.index()];
                // One word per lane, and the full order puts `f` at
                // position `f.index()`.
                let got = (lanes[f.index()] >> m) & 1 == 1;
                assert_eq!(got, expect, "bits {bits:08b} minterm {m}");
            }
        }
    }

    #[test]
    fn restricted_order_skips_outside_lanes() {
        let net = random_network(9, 5, 30, 4);
        let kernel = CompiledNet::compile(&net);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let patterns = PatternSet::random(5, 100, &mut rng);
        let root = net.node_ids().last().unwrap();
        let mask = simgen_netlist::cone::multi_fanin_cone_mask(&net, &[root]);
        let order = levelized_order(&net, &mask);
        let words = patterns.num_words();
        let lanes = kernel.simulate_lanes(&patterns, &order);
        let full = kernel.simulate_lanes(&patterns, &all_nodes(&net));
        // Only cone nodes get a lane.
        assert_eq!(order.len(), mask.iter().filter(|&&m| m).count());
        assert_eq!(lanes.len(), order.len() * words);
        for (lane, &id) in lanes.chunks_exact(words).zip(&order) {
            assert!(mask[id.index()], "non-cone node {id}");
            let at = id.index() * words;
            assert_eq!(lane, &full[at..at + words], "cone node {id}");
        }
    }

    #[test]
    fn shannon_tapes_stay_compact() {
        // A random 6-input function needs at most 2^0+..+2^3 muxes
        // plus leaf ops per node; the memo keeps tapes well below the
        // naive 63-op bound.
        let net = random_network(33, 6, 50, 6);
        let kernel = CompiledNet::compile(&net);
        let tape_nodes = kernel
            .kernels
            .iter()
            .filter(|k| matches!(k, NodeKernel::Tape { .. }))
            .count();
        if tape_nodes > 0 {
            assert!(
                kernel.tape_len() <= tape_nodes * 63,
                "{} ops for {} tape nodes",
                kernel.tape_len(),
                tape_nodes
            );
        }
    }

    /// A network of one 6-input LUT per table, all over the same six
    /// PIs.
    fn six_input_luts(tables: impl IntoIterator<Item = u64>) -> LutNetwork {
        let mut net = LutNetwork::new();
        let pis: Vec<NodeId> = (0..6).map(|i| net.add_pi(format!("p{i}"))).collect();
        for bits in tables {
            let tt = TruthTable::from_bits(6, bits).unwrap();
            let f = net.add_lut(pis.clone(), tt).unwrap();
            net.add_po(f, "f");
        }
        net
    }

    #[test]
    fn six_input_tapes_fit_the_register_file() {
        // A table whose tape needs 29 registers, the most a ≤ 6-input
        // LUT can need (the argument is at the assert in `compile`).
        let widest = CompiledNet::compile(&six_input_luts([0x59e6_d07f_8f3b_1842]));
        assert_eq!(widest.summary().scratch, 29);
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let tables: Vec<u64> = (0..10_000).map(|_| rng.gen()).collect();
        let kernel = CompiledNet::compile(&six_input_luts(tables));
        assert_eq!(kernel.summary().tape_nodes, 10_000);
        assert!(kernel.summary().scratch <= 29, "{:?}", kernel.summary());
    }

    #[test]
    fn lane_bytes_do_not_depend_on_the_simd_level() {
        let net = random_network(12, 6, 30, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        // 3 words: ragged at every width.
        let patterns = PatternSet::random(6, 150, &mut rng);
        let order = all_nodes(&net);
        for level in [SimdLevel::Scalar, SimdLevel::Wide256, SimdLevel::Wide512] {
            let kernel = CompiledNet::compile(&net);
            kernel.simulate_lanes_at(&patterns, &order, level);
            assert_eq!(
                kernel.pool_stats().lane_bytes,
                (order.len() * 3 * 8) as u64,
                "{level:?}"
            );
        }
    }
}
