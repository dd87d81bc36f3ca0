//! The conformance program model: a self-contained description of a bulk
//! bitwise workload, its environment, and its initial data.
//!
//! A [`Program`] is everything needed to rebuild a run bit-for-bit on any
//! execution path: device geometry and timing by name, AAP mode, tie-break
//! policy, optional fault arming, the allocation plan (sizes and
//! co-location groups), deterministic per-vector initial data (derived from
//! a seed, never stored raw), and the operation list. Programs serialize to
//! a small JSON document — the payload of the minimized repro files the
//! oracle writes on divergence.

use ambit_core::BitwiseOp;
use ambit_dram::{AapMode, DramGeometry, TieBreak, TimingParams};
use ambit_telemetry::json::Json;

use crate::refrng::ReferenceRng;

/// Device geometry, by name (the repro format never embeds raw field
/// values, so geometry changes in the model invalidate repros loudly
/// rather than silently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryKind {
    /// [`DramGeometry::tiny`]: 2 banks × 2 subarrays × 32 rows × 128 bits.
    Tiny,
    /// [`DramGeometry::tiny_dual_channel`]: the two-channel tiny variant.
    /// The smallest geometry with more than one command bus, so oracle runs
    /// over it exercise per-channel timing lanes and threaded batches that
    /// span channels.
    TinyDual,
    /// [`DramGeometry::micro17`]: the paper's full-size module.
    Micro17,
}

impl GeometryKind {
    /// The concrete geometry.
    pub fn geometry(self) -> DramGeometry {
        match self {
            GeometryKind::Tiny => DramGeometry::tiny(),
            GeometryKind::TinyDual => DramGeometry::tiny_dual_channel(),
            GeometryKind::Micro17 => DramGeometry::micro17(),
        }
    }

    /// Serialized name.
    pub fn name(self) -> &'static str {
        match self {
            GeometryKind::Tiny => "tiny",
            GeometryKind::TinyDual => "tiny2ch",
            GeometryKind::Micro17 => "micro17",
        }
    }

    /// Parses a serialized name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "tiny" => Some(GeometryKind::Tiny),
            "tiny2ch" => Some(GeometryKind::TinyDual),
            "micro17" => Some(GeometryKind::Micro17),
            _ => None,
        }
    }
}

/// Timing parameter set, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingKind {
    /// DDR3-1600 (the paper's primary configuration).
    Ddr3_1600,
    /// DDR3-1333.
    Ddr3_1333,
    /// DDR4-2400.
    Ddr4_2400,
}

impl TimingKind {
    /// Every timing set the generator samples from.
    pub const ALL: [TimingKind; 3] =
        [TimingKind::Ddr3_1600, TimingKind::Ddr3_1333, TimingKind::Ddr4_2400];

    /// The concrete timing parameters.
    pub fn params(self) -> TimingParams {
        match self {
            TimingKind::Ddr3_1600 => TimingParams::ddr3_1600(),
            TimingKind::Ddr3_1333 => TimingParams::ddr3_1333(),
            TimingKind::Ddr4_2400 => TimingParams::ddr4_2400(),
        }
    }

    /// Serialized name.
    pub fn name(self) -> &'static str {
        match self {
            TimingKind::Ddr3_1600 => "ddr3_1600",
            TimingKind::Ddr3_1333 => "ddr3_1333",
            TimingKind::Ddr4_2400 => "ddr4_2400",
        }
    }

    /// Parses a serialized name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "ddr3_1600" => Some(TimingKind::Ddr3_1600),
            "ddr3_1333" => Some(TimingKind::Ddr3_1333),
            "ddr4_2400" => Some(TimingKind::Ddr4_2400),
            _ => None,
        }
    }
}

/// One allocated bitvector: its length, its co-location group, and the seed
/// its initial contents derive from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorSpec {
    /// Length in bits.
    pub bits: usize,
    /// Driver allocation group (vectors sharing a group and a length are
    /// chunk-wise co-located and may be operands of one in-DRAM op).
    pub group: u32,
    /// Seed of the deterministic initial bit pattern
    /// ([`ReferenceRng::with_seed`]).
    pub data_seed: u64,
}

impl VectorSpec {
    /// The vector's deterministic initial contents.
    pub fn initial_data(&self) -> Vec<bool> {
        ReferenceRng::with_seed(self.data_seed).bits(self.bits)
    }
}

/// One bulk operation over vector indices (into [`Program::vectors`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgOp {
    /// `dst = op(src1, src2)` — covers all seven Figure 9 ops plus copy and
    /// the two init ops.
    Bitwise {
        /// The operation.
        op: BitwiseOp,
        /// First source vector index.
        src1: usize,
        /// Second source vector index, for two-operand ops.
        src2: Option<usize>,
        /// Destination vector index.
        dst: usize,
    },
    /// `dst = majority(a, b, c)` — the raw TRA primitive.
    Maj3 {
        /// First input vector index.
        a: usize,
        /// Second input vector index.
        b: usize,
        /// Third input vector index.
        c: usize,
        /// Destination vector index.
        dst: usize,
    },
    /// `dst = srcs[0] op … op srcs[k−1]` (associative fold; `op` is
    /// restricted to AND/OR by the compiler).
    Fold {
        /// The fold operation.
        op: BitwiseOp,
        /// Source vector indices (≥ 2).
        srcs: Vec<usize>,
        /// Destination vector index.
        dst: usize,
    },
    /// `dst = f(inputs…)` for an arbitrary truth table, synthesized to
    /// bbop microprograms by [`ambit_core::synth`] at execution time.
    /// Input `j` of an assignment contributes bit `j` of the minterm index;
    /// the result bit is bit `index` of `table`.
    Synth {
        /// The truth table over `inputs.len()` variables.
        table: u64,
        /// Input vector indices (1 ..= 5; inputs may repeat).
        inputs: Vec<usize>,
        /// Destination vector index (may alias an input; the synthesized
        /// program reads all inputs before it writes the output).
        dst: usize,
    },
}

impl ProgOp {
    /// Every vector index the op touches (sources then destination).
    pub fn touched(&self) -> Vec<usize> {
        match self {
            ProgOp::Bitwise { src1, src2, dst, .. } => {
                let mut v = vec![*src1];
                v.extend(*src2);
                v.push(*dst);
                v
            }
            ProgOp::Maj3 { a, b, c, dst } => vec![*a, *b, *c, *dst],
            ProgOp::Fold { srcs, dst, .. } => {
                let mut v = srcs.clone();
                v.push(*dst);
                v
            }
            ProgOp::Synth { inputs, dst, .. } => {
                let mut v = inputs.clone();
                v.push(*dst);
                v
            }
        }
    }
}

/// A complete, self-contained conformance program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The generator seed this program came from (provenance only; replay
    /// reconstructs nothing from it).
    pub seed: u64,
    /// Device geometry.
    pub geometry: GeometryKind,
    /// Timing parameter set.
    pub timing: TimingKind,
    /// AAP issue mode.
    pub aap_mode: AapMode,
    /// Charge-sharing tie-break policy (ties are impossible for the
    /// programs the generator emits, so every policy must agree).
    pub tie_break: TieBreak,
    /// Per-bit TRA fault rate, when the program runs fault-armed (such
    /// programs go through the resilient executor only).
    pub fault_tra_rate: Option<f64>,
    /// Seed of a device characterization map
    /// ([`ChipProfile`](ambit_circuit::ChipProfile)) the resilient path
    /// regenerates and arms before running: variation-aware placement,
    /// spare-row pre-remap, and a per-subarray fault campaign derived from
    /// the map. Profile-armed programs go through the resilient executor
    /// only, like fault-armed ones.
    pub profile_seed: Option<u64>,
    /// The allocation plan.
    pub vectors: Vec<VectorSpec>,
    /// The operation list, executed in order (parallel paths must preserve
    /// its data dependencies).
    pub ops: Vec<ProgOp>,
}

impl Program {
    /// Deterministic initial contents of every vector.
    pub fn initial_data(&self) -> Vec<Vec<bool>> {
        self.vectors.iter().map(VectorSpec::initial_data).collect()
    }

    /// Whether every op is expressible through the resilient executor
    /// (which only exposes the plain `bitwise` entry point).
    pub fn resilient_compatible(&self) -> bool {
        self.ops.iter().all(|op| matches!(op, ProgOp::Bitwise { .. }))
    }

    /// Structural validation: every op's vector indices exist, operands of
    /// one op share a length and a co-location group (the driver would
    /// reject anything else), arities match, folds use supported ops, and
    /// a fault- or profile-armed program is
    /// [`resilient_compatible`](Self::resilient_compatible).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first defect.
    pub fn validate(&self) -> Result<(), String> {
        if self.vectors.is_empty() {
            return Err("program has no vectors".into());
        }
        if self.ops.is_empty() {
            return Err("program has no ops".into());
        }
        for (i, op) in self.ops.iter().enumerate() {
            let touched = op.touched();
            for &v in &touched {
                if v >= self.vectors.len() {
                    return Err(format!("op {i} references missing vector {v}"));
                }
            }
            let first = &self.vectors[touched[0]];
            for &v in &touched[1..] {
                let spec = &self.vectors[v];
                if spec.bits != first.bits || spec.group != first.group {
                    return Err(format!(
                        "op {i} mixes families: vector {v} is ({}, group {}), expected ({}, group {})",
                        spec.bits, spec.group, first.bits, first.group
                    ));
                }
            }
            match op {
                ProgOp::Bitwise { op, src2, .. } => {
                    let need = op.source_count();
                    let got = 1 + usize::from(src2.is_some());
                    if need == 2 && src2.is_none() || need < 2 && src2.is_some() {
                        return Err(format!("op {i}: {op} expects {need} source(s), got {got}"));
                    }
                }
                ProgOp::Maj3 { .. } => {}
                ProgOp::Fold { op, srcs, .. } => {
                    if !matches!(op, BitwiseOp::And | BitwiseOp::Or) {
                        return Err(format!("op {i}: fold does not support {op}"));
                    }
                    if srcs.len() < 2 {
                        return Err(format!("op {i}: fold needs ≥ 2 sources"));
                    }
                }
                ProgOp::Synth { table, inputs, .. } => {
                    if inputs.is_empty() || inputs.len() > 5 {
                        return Err(format!(
                            "op {i}: synth takes 1..=5 inputs, got {}",
                            inputs.len()
                        ));
                    }
                    let minterms = 1u64 << inputs.len();
                    if table >> minterms != 0 {
                        return Err(format!(
                            "op {i}: synth table {table:#x} has bits beyond its {minterms} minterms"
                        ));
                    }
                }
            }
        }
        if let Some(rate) = self.fault_tra_rate {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} outside [0, 1]"));
            }
        }
        // An armed program runs through the resilient executor, which
        // takes only plain bitwise ops.
        if self.fault_tra_rate.is_some() || self.profile_seed.is_some() {
            let other = self.ops.iter().enumerate().find_map(|(i, op)| match op {
                ProgOp::Bitwise { .. } => None,
                ProgOp::Maj3 { .. } => Some((i, "maj3")),
                ProgOp::Fold { .. } => Some((i, "fold")),
                ProgOp::Synth { .. } => Some((i, "synth")),
            });
            if let Some((i, kind)) = other {
                return Err(format!(
                    "op {i}: a fault- or profile-armed program runs on the resilient \
                     executor, which takes bitwise ops only, not {kind}"
                ));
            }
        }
        Ok(())
    }

    /// Serializes the program to its JSON document.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("seed", big(self.seed)),
            ("geometry", Json::Str(self.geometry.name().into())),
            ("timing", Json::Str(self.timing.name().into())),
            (
                "aap_mode",
                Json::Str(
                    match self.aap_mode {
                        AapMode::Naive => "naive",
                        AapMode::Overlapped => "overlapped",
                    }
                    .into(),
                ),
            ),
            (
                "tie_break",
                Json::Str(
                    match self.tie_break {
                        TieBreak::Error => "error",
                        TieBreak::Zero => "zero",
                        TieBreak::One => "one",
                        TieBreak::Random => "random",
                    }
                    .into(),
                ),
            ),
            (
                "fault_tra_rate",
                self.fault_tra_rate.map_or(Json::Null, Json::Num),
            ),
            ("profile_seed", self.profile_seed.map_or(Json::Null, big)),
            (
                "vectors",
                Json::Arr(
                    self.vectors
                        .iter()
                        .map(|v| {
                            obj(vec![
                                ("bits", num(v.bits as u64)),
                                ("group", num(u64::from(v.group))),
                                ("data_seed", big(v.data_seed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "ops",
                Json::Arr(self.ops.iter().map(op_to_json).collect()),
            ),
        ])
    }

    /// Deserializes a program from its JSON document and validates it.
    ///
    /// # Errors
    ///
    /// A description of the first structural or semantic defect.
    pub fn from_json(doc: &Json) -> Result<Program, String> {
        let geometry = doc
            .get("geometry")
            .and_then(Json::as_str)
            .and_then(GeometryKind::from_name)
            .ok_or("bad or missing geometry")?;
        let timing = doc
            .get("timing")
            .and_then(Json::as_str)
            .and_then(TimingKind::from_name)
            .ok_or("bad or missing timing")?;
        let aap_mode = match doc.get("aap_mode").and_then(Json::as_str) {
            Some("naive") => AapMode::Naive,
            Some("overlapped") => AapMode::Overlapped,
            _ => return Err("bad or missing aap_mode".into()),
        };
        let tie_break = match doc.get("tie_break").and_then(Json::as_str) {
            Some("error") => TieBreak::Error,
            Some("zero") => TieBreak::Zero,
            Some("one") => TieBreak::One,
            Some("random") => TieBreak::Random,
            _ => return Err("bad or missing tie_break".into()),
        };
        let fault_tra_rate = match doc.get("fault_tra_rate") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_f64().ok_or("bad fault_tra_rate")?),
        };
        // Missing-key tolerant so repros predating the field still load.
        let profile_seed = match doc.get("profile_seed") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64_any().ok_or("bad profile_seed")?),
        };
        let vectors = doc
            .get("vectors")
            .and_then(Json::as_arr)
            .ok_or("missing vectors")?
            .iter()
            .map(|v| {
                Ok(VectorSpec {
                    bits: v.get("bits").and_then(Json::as_u64).ok_or("bad vector bits")? as usize,
                    group: v.get("group").and_then(Json::as_u64).ok_or("bad vector group")? as u32,
                    data_seed: v
                        .get("data_seed")
                        .and_then(Json::as_u64_any)
                        .ok_or("bad vector data_seed")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let ops = doc
            .get("ops")
            .and_then(Json::as_arr)
            .ok_or("missing ops")?
            .iter()
            .map(op_from_json)
            .collect::<Result<Vec<_>, String>>()?;
        let program = Program {
            seed: doc.get("seed").and_then(Json::as_u64_any).unwrap_or(0),
            geometry,
            timing,
            aap_mode,
            tie_break,
            fault_tra_rate,
            profile_seed,
            vectors,
            ops,
        };
        program.validate()?;
        Ok(program)
    }
}

/// Builds a JSON object from key/value pairs.
pub(crate) fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON number from an index or count.
pub(crate) fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

/// A full-width 64-bit integer as a decimal string, exact where an `f64`
/// number would round above 2^53. Read back with [`Json::as_u64_any`].
fn big(n: u64) -> Json {
    Json::Str(n.to_string())
}

/// Parses a bbop mnemonic back into its [`BitwiseOp`].
pub fn op_from_mnemonic(name: &str) -> Option<BitwiseOp> {
    const ALL: [BitwiseOp; 10] = [
        BitwiseOp::Not,
        BitwiseOp::And,
        BitwiseOp::Or,
        BitwiseOp::Nand,
        BitwiseOp::Nor,
        BitwiseOp::Xor,
        BitwiseOp::Xnor,
        BitwiseOp::Copy,
        BitwiseOp::InitZero,
        BitwiseOp::InitOne,
    ];
    ALL.into_iter().find(|op| op.mnemonic() == name)
}

fn op_to_json(op: &ProgOp) -> Json {
    match op {
        ProgOp::Bitwise { op, src1, src2, dst } => obj(vec![
            ("kind", Json::Str("bitwise".into())),
            ("op", Json::Str(op.mnemonic().into())),
            ("src1", num(*src1 as u64)),
            ("src2", src2.map_or(Json::Null, |s| num(s as u64))),
            ("dst", num(*dst as u64)),
        ]),
        ProgOp::Maj3 { a, b, c, dst } => obj(vec![
            ("kind", Json::Str("maj3".into())),
            ("a", num(*a as u64)),
            ("b", num(*b as u64)),
            ("c", num(*c as u64)),
            ("dst", num(*dst as u64)),
        ]),
        ProgOp::Fold { op, srcs, dst } => obj(vec![
            ("kind", Json::Str("fold".into())),
            ("op", Json::Str(op.mnemonic().into())),
            (
                "srcs",
                Json::Arr(srcs.iter().map(|&s| num(s as u64)).collect()),
            ),
            ("dst", num(*dst as u64)),
        ]),
        ProgOp::Synth { table, inputs, dst } => obj(vec![
            ("kind", Json::Str("synth".into())),
            // Truth tables can use all 64 bits; serialize like the seeds.
            ("table", big(*table)),
            (
                "inputs",
                Json::Arr(inputs.iter().map(|&s| num(s as u64)).collect()),
            ),
            ("dst", num(*dst as u64)),
        ]),
    }
}

fn op_from_json(doc: &Json) -> Result<ProgOp, String> {
    let idx = |key: &str| -> Result<usize, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or(format!("bad op field {key}"))
    };
    match doc.get("kind").and_then(Json::as_str) {
        Some("bitwise") => Ok(ProgOp::Bitwise {
            op: doc
                .get("op")
                .and_then(Json::as_str)
                .and_then(op_from_mnemonic)
                .ok_or("bad bitwise op")?,
            src1: idx("src1")?,
            src2: match doc.get("src2") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or("bad src2")? as usize),
            },
            dst: idx("dst")?,
        }),
        Some("maj3") => Ok(ProgOp::Maj3 {
            a: idx("a")?,
            b: idx("b")?,
            c: idx("c")?,
            dst: idx("dst")?,
        }),
        Some("fold") => Ok(ProgOp::Fold {
            op: doc
                .get("op")
                .and_then(Json::as_str)
                .and_then(op_from_mnemonic)
                .ok_or("bad fold op")?,
            srcs: doc
                .get("srcs")
                .and_then(Json::as_arr)
                .ok_or("bad fold srcs")?
                .iter()
                .map(|v| v.as_u64().map(|n| n as usize).ok_or("bad fold src".to_string()))
                .collect::<Result<Vec<_>, String>>()?,
            dst: idx("dst")?,
        }),
        Some("synth") => Ok(ProgOp::Synth {
            table: doc
                .get("table")
                .and_then(Json::as_u64_any)
                .ok_or("bad synth table")?,
            inputs: doc
                .get("inputs")
                .and_then(Json::as_arr)
                .ok_or("bad synth inputs")?
                .iter()
                .map(|v| v.as_u64().map(|n| n as usize).ok_or("bad synth input".to_string()))
                .collect::<Result<Vec<_>, String>>()?,
            dst: idx("dst")?,
        }),
        _ => Err("bad op kind".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        Program {
            seed: 99,
            geometry: GeometryKind::Tiny,
            timing: TimingKind::Ddr3_1600,
            aap_mode: AapMode::Overlapped,
            tie_break: TieBreak::Error,
            fault_tra_rate: None,
            profile_seed: None,
            vectors: vec![
                VectorSpec { bits: 128, group: 0, data_seed: 1 },
                VectorSpec { bits: 128, group: 0, data_seed: 2 },
                VectorSpec { bits: 128, group: 0, data_seed: 3 },
            ],
            ops: vec![
                ProgOp::Bitwise {
                    op: BitwiseOp::And,
                    src1: 0,
                    src2: Some(1),
                    dst: 2,
                },
                ProgOp::Maj3 { a: 0, b: 1, c: 2, dst: 2 },
                ProgOp::Fold { op: BitwiseOp::Or, srcs: vec![0, 1], dst: 2 },
                ProgOp::Synth { table: 0x96, inputs: vec![0, 1, 2], dst: 2 },
            ],
        }
    }

    #[test]
    fn json_round_trip_preserves_programs() {
        let p = sample();
        let text = p.to_json().to_string();
        let back = Program::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn json_round_trip_preserves_profile_seed() {
        // Full-width u64 seeds must survive (the writer emits them as
        // decimal strings, beyond f64's integer range). A profile-armed
        // program holds bitwise ops only.
        let p = Program {
            profile_seed: Some(u64::MAX - 7),
            ops: sample().ops[..1].to_vec(),
            ..sample()
        };
        let text = p.to_json().to_string();
        let back = Program::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn missing_profile_seed_key_parses_as_none() {
        // Repro documents written before the field existed have no
        // profile_seed key at all; they must still load.
        let mut doc = sample().to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.remove("profile_seed");
        }
        let back = Program::from_json(&doc).unwrap();
        assert_eq!(back.profile_seed, None);
    }

    #[test]
    fn validation_rejects_family_mixing_and_bad_arity() {
        let mut p = sample();
        p.vectors[1].group = 7;
        assert!(p.validate().unwrap_err().contains("mixes families"));

        let mut p = sample();
        p.ops[0] = ProgOp::Bitwise { op: BitwiseOp::Not, src1: 0, src2: Some(1), dst: 2 };
        assert!(p.validate().is_err());

        let mut p = sample();
        p.ops[2] = ProgOp::Fold { op: BitwiseOp::Xor, srcs: vec![0, 1], dst: 2 };
        assert!(p.validate().unwrap_err().contains("fold"));

        let mut p = sample();
        p.ops[1] = ProgOp::Maj3 { a: 0, b: 1, c: 9, dst: 2 };
        assert!(p.validate().unwrap_err().contains("missing vector"));
    }

    #[test]
    fn validation_rejects_armed_programs_the_resilient_executor_cannot_run() {
        let bitwise_only = Program { ops: sample().ops[..1].to_vec(), ..sample() };
        for armed in [
            Program { fault_tra_rate: Some(0.001), ..sample() },
            Program { profile_seed: Some(5), ..sample() },
        ] {
            assert_eq!(
                armed.validate().unwrap_err(),
                "op 1: a fault- or profile-armed program runs on the resilient executor, \
                 which takes bitwise ops only, not maj3"
            );
            let armed = Program { ops: bitwise_only.ops.clone(), ..armed };
            assert_eq!(armed.validate(), Ok(()));
        }
    }

    #[test]
    fn validation_rejects_bad_synth_ops() {
        let mut p = sample();
        p.ops[3] = ProgOp::Synth { table: 0, inputs: vec![], dst: 2 };
        assert!(p.validate().unwrap_err().contains("synth"));

        let mut p = sample();
        p.ops[3] = ProgOp::Synth { table: 0, inputs: vec![0, 1, 2, 0, 1, 2], dst: 2 };
        assert!(p.validate().unwrap_err().contains("1..=5"));

        // Table bits beyond the 2^inputs minterms.
        let mut p = sample();
        p.ops[3] = ProgOp::Synth { table: 0x1_0000, inputs: vec![0, 1], dst: 2 };
        assert!(p.validate().unwrap_err().contains("minterms"));
    }

    #[test]
    fn full_width_synth_tables_round_trip() {
        // A 5-input table uses 32 bits; make sure high bits survive the
        // JSON path (serialized like the u64 seeds).
        let mut p = sample();
        p.ops[3] = ProgOp::Synth {
            table: 0xdead_beef,
            inputs: vec![0, 1, 2, 0, 1],
            dst: 2,
        };
        let text = p.to_json().to_string();
        let back = Program::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn initial_data_is_deterministic_per_seed() {
        let p = sample();
        assert_eq!(p.initial_data(), p.initial_data());
        assert_ne!(p.vectors[0].initial_data(), p.vectors[1].initial_data());
    }
}
