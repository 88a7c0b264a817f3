//! The evolutionary loop: a seeded population of generated programs,
//! selected on divergence-driven fitness, with byte-deterministic runs
//! and checkpointable state.
//!
//! Determinism contract: generation `g` of a run with seed `s` draws all
//! randomness from `Rng::new(mix(s, g))` — the PRNG is re-seeded per
//! generation from the seed and generation number alone, so resuming from
//! a checkpoint continues *exactly* the run that would have happened
//! without the interruption, and two same-seed runs emit byte-identical
//! generation logs, divergent programs, and witnesses.

use crate::fitness::{evaluate, Evaluation};
use crate::gen::{generate, Genome};
use crate::mutate::{crossover, mutate};
use compdiff::{hash64, hex_decode, hex_encode, Json};
use fuzzing::{splitmix64, Rng};
use std::collections::BTreeSet;

/// SplitMix64 mixer for deriving per-generation PRNG seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    splitmix64(a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The largest population a run may hold (the default is 8). The bound
/// keeps a size read from the command line or a checkpoint from
/// allocating without limit.
pub const MAX_POPULATION: usize = 4096;

/// Evolution parameters.
#[derive(Debug, Clone)]
pub struct EvolveConfig {
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Population size (default 8), kept within `2..=MAX_POPULATION`.
    pub population: usize,
}

impl Default for EvolveConfig {
    fn default() -> Self {
        EvolveConfig {
            seed: 1,
            population: 8,
        }
    }
}

/// One diverging program discovered by the loop.
#[derive(Debug, Clone)]
pub struct DivergentFind {
    /// The program source.
    pub source: String,
    /// The probe input it diverged on.
    pub probe: Vec<u8>,
    /// Hash-keyed divergence signature (dedup key).
    pub signature: String,
    /// Generation it was first seen in.
    pub generation: u32,
    /// Its fitness at discovery.
    pub fitness: i64,
}

/// One line of the generation log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationRecord {
    /// Generation number (0-based).
    pub generation: u32,
    /// Individuals evaluated this generation.
    pub evaluated: usize,
    /// Best fitness in the generation.
    pub best_fitness: i64,
    /// Mean fitness (integer floor).
    pub mean_fitness: i64,
    /// Cumulative distinct diverging programs found so far.
    pub divergent_total: usize,
    /// Size of the lint-novelty archive after this generation.
    pub archive_size: usize,
    /// Content hash of the best individual's source.
    pub best_hash: u64,
}

impl GenerationRecord {
    /// JSONL rendering (one object per line).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("generation", Json::Int(i64::from(self.generation))),
            ("evaluated", Json::Int(self.evaluated as i64)),
            ("best_fitness", Json::Int(self.best_fitness)),
            ("mean_fitness", Json::Int(self.mean_fitness)),
            ("divergent_total", Json::Int(self.divergent_total as i64)),
            ("archive_size", Json::Int(self.archive_size as i64)),
            ("best_hash", Json::Str(format!("{:016x}", self.best_hash))),
        ])
    }
}

/// The checkpointable state of a run: everything needed to continue it.
#[derive(Debug, Clone)]
pub struct EvolveState {
    /// Master seed.
    pub seed: u64,
    /// Population size.
    pub population_size: usize,
    /// Next generation to run (0 for a fresh state).
    pub next_generation: u32,
    /// Current population as `(source, probes)` pairs — sources rather
    /// than ASTs so the state serializes, relying on the pretty
    /// round-trip guarantee.
    pub population: Vec<(String, Vec<Vec<u8>>)>,
    /// Lint keys already credited for novelty.
    pub archive: BTreeSet<String>,
    /// Divergence signatures already recorded.
    pub seen_signatures: BTreeSet<String>,
    /// Distinct diverging programs found so far.
    pub divergents: Vec<DivergentFind>,
}

impl EvolveState {
    /// A fresh state: generation 0's population straight from the
    /// generator, `cfg.population` clamped to `2..=MAX_POPULATION`.
    pub fn new(cfg: &EvolveConfig) -> Self {
        let population_size = cfg.population.clamp(2, MAX_POPULATION);
        let mut rng = Rng::new(mix(cfg.seed, 0x5eed));
        let population = (0..population_size)
            .map(|_| {
                let g = generate(&mut rng);
                (g.source(), g.probes)
            })
            .collect();
        EvolveState {
            seed: cfg.seed,
            population_size,
            next_generation: 0,
            population,
            archive: BTreeSet::new(),
            seen_signatures: BTreeSet::new(),
            divergents: Vec::new(),
        }
    }

    /// Serializes the full state (checkpoint file format).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::Str(format!("{}", self.seed))),
            ("population_size", Json::Int(self.population_size as i64)),
            (
                "next_generation",
                Json::Int(i64::from(self.next_generation)),
            ),
            (
                "population",
                Json::Array(
                    self.population
                        .iter()
                        .map(|(src, probes)| {
                            Json::obj(vec![
                                ("source", Json::Str(src.clone())),
                                (
                                    "probes",
                                    Json::Array(
                                        probes.iter().map(|p| Json::Str(hex_encode(p))).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("archive", Json::strings(self.archive.iter())),
            (
                "seen_signatures",
                Json::strings(self.seen_signatures.iter()),
            ),
            (
                "divergents",
                Json::Array(
                    self.divergents
                        .iter()
                        .map(|d| {
                            Json::obj(vec![
                                ("source", Json::Str(d.source.clone())),
                                ("probe", Json::Str(hex_encode(&d.probe))),
                                ("signature", Json::Str(d.signature.clone())),
                                ("generation", Json::Int(i64::from(d.generation))),
                                ("fitness", Json::Int(d.fitness)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Restores a state serialized by [`to_json`](EvolveState::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("missing `{k}`"));
        let seed: u64 = field("seed")?
            .as_str()
            .ok_or("`seed` not a string")?
            .parse()
            .map_err(|_| "bad `seed`".to_string())?;
        let population_size = field("population_size")?
            .as_u64()
            .ok_or("`population_size` not a number")?;
        let population_size = usize::try_from(population_size)
            .ok()
            .filter(|n| (2..=MAX_POPULATION).contains(n))
            .ok_or_else(|| {
                format!("`population_size` {population_size} out of range (2..={MAX_POPULATION})")
            })?;
        let next_generation = field("next_generation")?
            .as_u64()
            .ok_or("`next_generation` not a number")?;
        let next_generation = u32::try_from(next_generation)
            .map_err(|_| format!("`next_generation` {next_generation} out of range"))?;
        let mut population = Vec::new();
        for p in field("population")?
            .as_array()
            .ok_or("`population` not an array")?
        {
            let src = p
                .get("source")
                .and_then(Json::as_str)
                .ok_or("population entry missing `source`")?
                .to_string();
            let mut probes = Vec::new();
            for pr in p
                .get("probes")
                .and_then(Json::as_array)
                .ok_or("population entry missing `probes`")?
            {
                probes.push(hex_decode(pr.as_str().ok_or("probe not a string")?)?);
            }
            population.push((src, probes));
        }
        let strings = |k: &str| -> Result<BTreeSet<String>, String> {
            Ok(field(k)?
                .as_array()
                .ok_or_else(|| format!("`{k}` not an array"))?
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect())
        };
        let mut divergents = Vec::new();
        for d in field("divergents")?
            .as_array()
            .ok_or("`divergents` not an array")?
        {
            divergents.push(DivergentFind {
                source: d
                    .get("source")
                    .and_then(Json::as_str)
                    .ok_or("divergent missing `source`")?
                    .to_string(),
                probe: hex_decode(
                    d.get("probe")
                        .and_then(Json::as_str)
                        .ok_or("divergent missing `probe`")?,
                )?,
                signature: d
                    .get("signature")
                    .and_then(Json::as_str)
                    .ok_or("divergent missing `signature`")?
                    .to_string(),
                generation: d
                    .get("generation")
                    .and_then(Json::as_u64)
                    .ok_or("divergent missing `generation`")? as u32,
                fitness: d
                    .get("fitness")
                    .and_then(Json::as_i64)
                    .ok_or("divergent missing `fitness`")?,
            });
        }
        Ok(EvolveState {
            seed,
            population_size,
            next_generation,
            population,
            archive: strings("archive")?,
            seen_signatures: strings("seen_signatures")?,
            divergents,
        })
    }
}

fn parse_genome(src: &str, probes: &[Vec<u8>]) -> Option<Genome> {
    Some(Genome {
        program: minc::parse(src).ok()?,
        probes: probes.to_vec(),
    })
}

/// Tournament-of-3 selection over `(index, fitness)` pairs; ties break
/// toward the lower index (which, post-sort, is the fitter individual).
fn tournament(ranked: &[(usize, i64)], rng: &mut Rng) -> usize {
    let mut best = rng.below(ranked.len());
    for _ in 0..2 {
        let c = rng.below(ranked.len());
        if ranked[c].1 > ranked[best].1 || (ranked[c].1 == ranked[best].1 && c < best) {
            best = c;
        }
    }
    ranked[best].0
}

/// Runs `generations` more generations on `state`, invoking
/// `on_generation` with each generation's log record.
///
/// Returns the records for the generations run.
pub fn run_generations(
    state: &mut EvolveState,
    generations: u32,
    mut on_generation: impl FnMut(&GenerationRecord),
) -> Vec<GenerationRecord> {
    let mut records = Vec::new();
    for _ in 0..generations {
        let g = state.next_generation;
        let mut rng = Rng::new(mix(state.seed, u64::from(g)));

        // Evaluate sequentially in population order (archive grows as we
        // go — deterministic because the order is).
        let mut evals: Vec<(usize, Evaluation)> = Vec::new();
        for (i, (src, probes)) in state.population.iter().enumerate() {
            let Ok(eval) = evaluate(src, probes, &state.archive) else {
                continue;
            };
            for key in &eval.novel_keys {
                state.archive.insert(key.clone());
            }
            if eval.divergent {
                let sig = eval.signature.clone().unwrap_or_default();
                if state.seen_signatures.insert(sig.clone()) {
                    state.divergents.push(DivergentFind {
                        source: src.clone(),
                        probe: probes[eval.divergent_probe.unwrap_or(0)].clone(),
                        signature: sig,
                        generation: g,
                        fitness: eval.fitness,
                    });
                }
            }
            evals.push((i, eval));
        }

        // Rank: fitness descending, source ascending as the tiebreak.
        let mut ranked: Vec<(usize, i64)> = evals.iter().map(|(i, e)| (*i, e.fitness)).collect();
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| state.population[a.0].0.cmp(&state.population[b.0].0))
        });

        let best_fitness = ranked.first().map(|r| r.1).unwrap_or(0);
        let mean_fitness = if ranked.is_empty() {
            0
        } else {
            ranked.iter().map(|r| r.1).sum::<i64>() / ranked.len() as i64
        };
        let best_hash = ranked
            .first()
            .map(|r| hash64(state.population[r.0].0.as_bytes()))
            .unwrap_or(0);
        let record = GenerationRecord {
            generation: g,
            evaluated: evals.len(),
            best_fitness,
            mean_fitness,
            divergent_total: state.divergents.len(),
            archive_size: state.archive.len(),
            best_hash,
        };
        on_generation(&record);
        records.push(record);

        // Next population: elitism (top 2), then tournament offspring.
        let mut next: Vec<(String, Vec<Vec<u8>>)> = Vec::with_capacity(state.population_size);
        for r in ranked.iter().take(2) {
            next.push(state.population[r.0].clone());
        }
        while next.len() < state.population_size {
            let child = if ranked.is_empty() {
                generate(&mut rng)
            } else {
                let pi = tournament(&ranked, &mut rng);
                let (src, probes) = &state.population[pi];
                match parse_genome(src, probes) {
                    None => generate(&mut rng),
                    Some(parent) => {
                        if rng.one_in(4) && ranked.len() > 1 {
                            let qi = tournament(&ranked, &mut rng);
                            let (qsrc, qprobes) = &state.population[qi];
                            match parse_genome(qsrc, qprobes) {
                                Some(other) => crossover(&parent, &other, &mut rng),
                                None => mutate(&parent, &mut rng),
                            }
                        } else {
                            mutate(&parent, &mut rng)
                        }
                    }
                }
            };
            next.push((child.source(), child.probes));
        }
        state.population = next;
        state.next_generation = g + 1;
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> EvolveConfig {
        EvolveConfig {
            seed,
            population: 4,
        }
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let mut a = EvolveState::new(&small_cfg(9));
        let mut b = EvolveState::new(&small_cfg(9));
        let ra = run_generations(&mut a, 2, |_| {});
        let rb = run_generations(&mut b, 2, |_| {});
        assert_eq!(ra, rb);
        assert_eq!(a.population, b.population);
        assert_eq!(
            a.divergents.len(),
            b.divergents.len(),
            "same finds both runs"
        );
        for (da, db) in a.divergents.iter().zip(&b.divergents) {
            assert_eq!(da.source, db.source);
            assert_eq!(da.signature, db.signature);
        }
    }

    #[test]
    fn resume_from_checkpoint_matches_straight_run() {
        let mut straight = EvolveState::new(&small_cfg(13));
        run_generations(&mut straight, 2, |_| {});

        let mut first = EvolveState::new(&small_cfg(13));
        run_generations(&mut first, 1, |_| {});
        let json = first.to_json().render();
        let mut resumed = EvolveState::from_json(&Json::parse(&json).unwrap()).unwrap();
        run_generations(&mut resumed, 1, |_| {});

        assert_eq!(straight.population, resumed.population);
        assert_eq!(straight.next_generation, resumed.next_generation);
        assert_eq!(straight.archive, resumed.archive);
        assert_eq!(straight.seen_signatures, resumed.seen_signatures);
    }

    #[test]
    fn resume_rejects_malformed_probe_hex() {
        let mut state = EvolveState::new(&small_cfg(3));
        state.population[0].1 = vec![vec![0xab]];
        let json = state.to_json().render();
        let probe = r#""probes":["ab"]"#;
        assert!(json.contains(probe));
        // Neither is a pair of hex digits: a multibyte character must not
        // be sliced mid-character, and a sign must not parse as a digit.
        for bad in ["a\u{e9}0", "+f"] {
            let tampered = json.replacen(probe, &format!(r#""probes":["{bad}"]"#), 1);
            let j = Json::parse(&tampered).unwrap();
            assert!(EvolveState::from_json(&j).is_err(), "probe {bad:?}");
        }
    }

    #[test]
    fn evolution_finds_divergence_quickly() {
        let mut state = EvolveState::new(&EvolveConfig {
            seed: 1,
            population: 6,
        });
        run_generations(&mut state, 2, |_| {});
        assert!(
            !state.divergents.is_empty(),
            "idiom-biased generation should diverge within 2 generations"
        );
    }

    #[test]
    fn state_round_trips_through_json() {
        let mut state = EvolveState::new(&small_cfg(3));
        run_generations(&mut state, 1, |_| {});
        let j = state.to_json().render();
        let back = EvolveState::from_json(&Json::parse(&j).unwrap()).unwrap();
        assert_eq!(back.seed, state.seed);
        assert_eq!(back.population, state.population);
        assert_eq!(back.archive, state.archive);
        assert_eq!(back.divergents.len(), state.divergents.len());
    }

    #[test]
    fn resume_rejects_an_out_of_range_population_size() {
        let state = EvolveState::new(&small_cfg(3));
        let json = state.to_json().render();
        let field = r#""population_size":4"#;
        assert!(json.contains(field));
        for bad in ["0", "1", "4097", "1000000000000"] {
            let tampered = json.replacen(field, &format!(r#""population_size":{bad}"#), 1);
            let err = EvolveState::from_json(&Json::parse(&tampered).unwrap()).unwrap_err();
            assert!(err.contains("`population_size`"), "{bad}: {err}");
        }
        let at_max = json.replacen(field, &format!(r#""population_size":{MAX_POPULATION}"#), 1);
        let back = EvolveState::from_json(&Json::parse(&at_max).unwrap()).unwrap();
        assert_eq!(back.population_size, MAX_POPULATION);
    }

    #[test]
    fn a_fresh_population_is_clamped_to_the_bound() {
        for (asked, kept) in [(0, 2), (1, 2), (5, 5), (MAX_POPULATION + 1, MAX_POPULATION)] {
            let state = EvolveState::new(&EvolveConfig {
                seed: 1,
                population: asked,
            });
            assert_eq!(
                (state.population_size, state.population.len()),
                (kept, kept)
            );
        }
    }
}
