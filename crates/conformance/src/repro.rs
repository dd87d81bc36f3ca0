//! Minimizing repro capture and deterministic replay.
//!
//! When the oracle reports a divergence, [`Repro::capture`] greedily
//! delta-debugs the program — dropping ops from the back, garbage-collecting
//! unreferenced vectors, and shrinking vector lengths — while re-running the
//! oracle after every candidate edit so only failure-preserving reductions
//! survive. The result serializes to a self-contained JSON document (seed,
//! environment, allocation plan, ops, optional mutation, and the observed
//! failures) that replays bit-identically on any machine.

use ambit_telemetry::json::Json;

use crate::oracle::{run_oracle, Failure, Mutation, OracleReport};
use crate::program::{num, obj, Program};

/// A self-contained, minimized failure reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// The minimized program.
    pub program: Program,
    /// The test-only divergence seed, when the failure was planted.
    pub mutation: Option<Mutation>,
    /// The failures observed on the minimized program.
    pub failures: Vec<Failure>,
}

fn fails(program: &Program, mutation: Option<&Mutation>) -> Option<OracleReport> {
    let report = run_oracle(program, mutation);
    (!report.ok()).then_some(report)
}

/// Greedily minimizes `program` while it keeps failing the oracle under
/// `mutation`. Returns the reduced program and the (possibly re-indexed)
/// mutation. The input must already fail; the output is guaranteed to.
pub fn minimize(
    program: &Program,
    mutation: Option<&Mutation>,
) -> (Program, Option<Mutation>) {
    let mut best = program.clone();
    let mut mutation = mutation.cloned();
    debug_assert!(fails(&best, mutation.as_ref()).is_some());

    // 1. Drop ops, last to first (later ops can't feed earlier ones, so a
    //    single reverse pass converges).
    let mut i = best.ops.len();
    while i > 0 {
        i -= 1;
        if best.ops.len() == 1 {
            break;
        }
        let mut candidate = best.clone();
        candidate.ops.remove(i);
        if candidate.validate().is_ok() && fails(&candidate, mutation.as_ref()).is_some() {
            best = candidate;
        }
    }

    // 2. Garbage-collect vectors no remaining op touches (re-indexing ops
    //    and the mutation).
    let mut v = best.vectors.len();
    while v > 0 {
        v -= 1;
        let touched = best.ops.iter().any(|op| op.touched().contains(&v));
        let pinned = mutation.as_ref().is_some_and(|m| m.vector == v);
        if touched || pinned || best.vectors.len() == 1 {
            continue;
        }
        let mut candidate = best.clone();
        candidate.vectors.remove(v);
        for op in &mut candidate.ops {
            remap_indices(op, v);
        }
        let remapped = mutation.clone().map(|mut m| {
            if m.vector > v {
                m.vector -= 1;
            }
            m
        });
        if candidate.validate().is_ok() && fails(&candidate, remapped.as_ref()).is_some() {
            best = candidate;
            mutation = remapped;
        }
    }

    // 3. Shrink vector lengths family-by-family (all vectors sharing a
    //    (bits, group) family must shrink together to stay co-locatable).
    let mut families: Vec<(usize, u32)> = best
        .vectors
        .iter()
        .map(|spec| (spec.bits, spec.group))
        .collect();
    families.sort_unstable();
    families.dedup();
    for (bits, group) in families {
        let mut current = bits;
        while current > 1 {
            let next = current / 2;
            let mut candidate = best.clone();
            for spec in &mut candidate.vectors {
                if spec.bits == current && spec.group == group {
                    spec.bits = next;
                }
            }
            if fails(&candidate, mutation.as_ref()).is_some() {
                best = candidate;
                current = next;
            } else {
                break;
            }
        }
    }

    debug_assert!(fails(&best, mutation.as_ref()).is_some());
    (best, mutation)
}

impl Repro {
    /// Runs the oracle on `program`; on failure, minimizes and captures a
    /// repro. Returns `None` when the program conforms.
    pub fn capture(program: &Program, mutation: Option<&Mutation>) -> Option<Repro> {
        fails(program, mutation)?;
        let (program, mutation) = minimize(program, mutation);
        let failures = run_oracle(&program, mutation.as_ref()).failures;
        Some(Repro { program, mutation, failures })
    }

    /// Re-runs the oracle on the stored program and mutation.
    pub fn replay(&self) -> OracleReport {
        run_oracle(&self.program, self.mutation.as_ref())
    }

    /// Whether a replay reproduces the recorded failure: the run must fail,
    /// on the same set of paths the capture recorded.
    pub fn reproduces(&self) -> bool {
        let report = self.replay();
        if report.ok() {
            return false;
        }
        let paths = |fs: &[Failure]| {
            let mut p: Vec<&str> = fs.iter().map(|f| f.path.as_str()).collect();
            p.sort_unstable();
            p.dedup();
            p.into_iter().map(String::from).collect::<Vec<_>>()
        };
        paths(&report.failures) == paths(&self.failures)
    }

    /// Serializes the repro to its JSON document.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("format", Json::Str("ambit-conformance-repro-v1".into())),
            ("program", self.program.to_json()),
            (
                "mutation",
                self.mutation.as_ref().map_or(Json::Null, |m| {
                    obj(vec![
                        ("path", Json::Str(m.path.clone())),
                        ("vector", num(m.vector as u64)),
                        ("bit", num(m.bit as u64)),
                    ])
                }),
            ),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            obj(vec![
                                ("path", Json::Str(f.path.clone())),
                                ("detail", Json::Str(f.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a repro from JSON text.
    ///
    /// # Errors
    ///
    /// A description of the first structural defect.
    pub fn from_json_text(text: &str) -> Result<Repro, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("format").and_then(Json::as_str) != Some("ambit-conformance-repro-v1") {
            return Err("not an ambit-conformance-repro-v1 document".into());
        }
        let program = Program::from_json(doc.get("program").ok_or("missing program")?)?;
        let mutation = match doc.get("mutation") {
            None | Some(Json::Null) => None,
            Some(m) => Some(Mutation {
                path: m
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or("bad mutation path")?
                    .to_string(),
                vector: m.get("vector").and_then(Json::as_u64).ok_or("bad mutation vector")?
                    as usize,
                bit: m.get("bit").and_then(Json::as_u64).ok_or("bad mutation bit")? as usize,
            }),
        };
        let failures = doc
            .get("failures")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|f| {
                Ok(Failure {
                    path: f
                        .get("path")
                        .and_then(Json::as_str)
                        .ok_or("bad failure path")?
                        .to_string(),
                    detail: f
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Repro { program, mutation, failures })
    }
}

/// Rewrites an op's vector indices after removing vector `removed`.
fn remap_indices(op: &mut crate::program::ProgOp, removed: usize) {
    use crate::program::ProgOp;
    let fix = |i: &mut usize| {
        if *i > removed {
            *i -= 1;
        }
    };
    match op {
        ProgOp::Bitwise { src1, src2, dst, .. } => {
            fix(src1);
            if let Some(s) = src2 {
                fix(s);
            }
            fix(dst);
        }
        ProgOp::Maj3 { a, b, c, dst } => {
            fix(a);
            fix(b);
            fix(c);
            fix(dst);
        }
        ProgOp::Fold { srcs, dst, .. } => {
            srcs.iter_mut().for_each(fix);
            fix(dst);
        }
        ProgOp::Synth { inputs, dst, .. } => {
            inputs.iter_mut().for_each(fix);
            fix(dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};

    /// A seed whose program has several ops and vectors, so minimization
    /// has something to chew on.
    fn fat_program() -> Program {
        let cfg = GeneratorConfig { ops: (6, 12), ..GeneratorConfig::default() }
;
        (1..100)
            .map(|s| generate(s, &cfg))
            .find(|p| p.ops.len() >= 6 && p.vectors.len() >= 4)
            .expect("seed space contains a fat program")
    }

    #[test]
    fn capture_minimizes_and_replays_deterministically() {
        let program = fat_program();
        let mutation = Mutation { path: "batch_serial".into(), vector: 0, bit: 3 };
        let repro = Repro::capture(&program, Some(&mutation)).expect("mutation must fail");
        assert!(repro.program.ops.len() < program.ops.len());
        assert!(repro.reproduces());

        // Round-trip through JSON and replay again.
        let text = repro.to_json().to_string();
        let back = Repro::from_json_text(&text).unwrap();
        assert_eq!(back, repro);
        assert!(back.reproduces());
    }

    #[test]
    fn conforming_programs_capture_nothing() {
        let program = generate(1, &GeneratorConfig::default());
        assert!(Repro::capture(&program, None).is_none());
    }

    /// A fault-armed repro with full-width seeds, as written by the
    /// conformance crate's former JSON codec.
    const LEGACY_REPRO: &str = r#"{"failures":[{"detail":"vector 2 differs at bit 77: \"got\" 1\n\texpected 0","path":"resilient"}],"format":"ambit-conformance-repro-v1","mutation":{"bit":77,"path":"resilient","vector":2},"program":{"aap_mode":"naive","fault_tra_rate":0.0005,"geometry":"tiny","ops":[{"dst":2,"kind":"bitwise","op":"bbop_xor","src1":0,"src2":1},{"dst":1,"kind":"bitwise","op":"bbop_not","src1":2,"src2":null},{"dst":2,"kind":"fold","op":"bbop_or","srcs":[0,1]}],"profile_seed":"18446744073709551608","seed":"16045690984503111693","tie_break":"zero","timing":"ddr3_1600","vectors":[{"bits":128,"data_seed":"18446744073709551557","group":0},{"bits":128,"data_seed":"2","group":0},{"bits":128,"data_seed":"1152921504606846976","group":0}]}}"#;

    #[test]
    fn legacy_repro_re_serializes_byte_for_byte() {
        let repro = Repro::from_json_text(LEGACY_REPRO).unwrap();
        assert_eq!(repro.program.fault_tra_rate, Some(0.0005));
        assert_eq!(repro.program.profile_seed, Some(u64::MAX - 7));
        assert_eq!(repro.program.vectors[0].data_seed, u64::MAX - 58);
        assert_eq!(repro.to_json().to_string(), LEGACY_REPRO);
    }

    #[test]
    fn from_json_rejects_foreign_documents() {
        assert!(Repro::from_json_text("{}").is_err());
        assert!(Repro::from_json_text("[1,2]").is_err());
        assert!(Repro::from_json_text("{\"format\":\"other\"}").is_err());
    }
}
