//! The two workloads: their datasets, the dialogues and evaluations each
//! connection runs, and the fixed open-loop rate each is offered.
//!
//! Everything here is a pure function of the seed. [`Workload::script_hash`]
//! fingerprints the generated inputs so two runs can show they drove the
//! same ones.

use crate::stats::fnv1a;
use qhorn_bench::load::{build_script, LoadConfig, Population};
use qhorn_core::Query;
use qhorn_engine::session::LearnerKind;
use qhorn_engine::DataStore;
use qhorn_json::{Json, ToJson};
use qhorn_relation::generate::{generate_dataset, sweep, verify_dataset};
use qhorn_relation::synthesize::DomainHints;
use qhorn_relation::DatasetDef;
use qhorn_sim::genquery::{random_qhorn1, random_role_preserving, RolePreservingParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["many_users_qhorn1", "wide_role_preserving_durable"];

/// One scripted user's dialogue.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which learner the session runs.
    pub learner: LearnerKind,
    /// How the scripted user behaves.
    pub population: Population,
    /// Catalog name of the dataset.
    pub dataset: String,
    /// `size` field of `create_session`.
    pub size: usize,
    /// The hidden target the user answers from.
    pub target: Query,
    /// Seed of the user's own coin flips.
    pub seed: u64,
}

impl ToJson for Plan {
    fn to_json(&self) -> Json {
        Json::object([
            ("learner", Json::Str(self.learner.wire_name().to_string())),
            ("population", Json::Str(self.population.name().to_string())),
            ("dataset", self.dataset.to_json()),
            ("size", Json::U64(self.size as u64)),
            ("target", self.target.to_json()),
            ("seed", Json::U64(self.seed)),
        ])
    }
}

/// One `evaluate_batch` input: an uploaded dataset and a query over it.
#[derive(Clone, Debug)]
pub struct EvalCase {
    /// Catalog name of the upload.
    pub dataset: String,
    /// `size` field of the request (ignored for uploads).
    pub size: usize,
    /// Query shorthand as sent on the wire.
    pub query: String,
}

/// What one round-robin slot of a connection does.
#[derive(Clone, Debug)]
pub enum SlotSpec {
    /// Runs these dialogues one after another.
    Dialogues(VecDeque<Plan>),
    /// Cycles forever through `evaluate_batch` of these
    /// [`Workload::evals`] indices.
    Evals(Vec<usize>),
}

/// The generated inputs of one workload.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Datasets uploaded to the catalog during set-up.
    pub uploads: Vec<DatasetDef>,
    /// Whether the registry logs to a durable store (`FsyncPolicy::Always`).
    pub durable: bool,
    /// Open-loop offered rate per connection, requests per second.
    pub rate_per_conn: f64,
    /// Slots of each of the two connections (TCP first, then HTTP).
    pub conns: [Vec<SlotSpec>; 2],
    /// The order each connection visits its slots in, repeated.
    pub order: [Vec<usize>; 2],
    /// The `evaluate_batch` inputs [`SlotSpec::Evals`] indexes.
    pub evals: Vec<EvalCase>,
}

fn verified(def: DatasetDef) -> DatasetDef {
    if let Err(e) = verify_dataset(&def) {
        panic!("generated dataset {} failed verification: {e}", def.name);
    }
    def
}

fn sub_rng(seed: u64, a: u64, b: u64, c: u64) -> SmallRng {
    SmallRng::seed_from_u64(fnv1a([seed, a, b, c].iter().flat_map(|v| v.to_le_bytes())))
}

fn arity(def: &DatasetDef) -> u16 {
    def.propositions.len() as u16
}

fn random_target(learner: LearnerKind, n: u16, rng: &mut SmallRng) -> Query {
    match learner {
        LearnerKind::Qhorn1 => random_qhorn1(n, rng),
        LearnerKind::RolePreserving => {
            random_role_preserving(n, &RolePreservingParams::default(), rng)
        }
    }
}

/// `count` plans cycling over `datasets`, each with its own target and
/// coin-flip seed derived from `(seed, conn, slot, i)`.
fn plans(
    seed: u64,
    (conn, slot): (u64, u64),
    learner: LearnerKind,
    population: Population,
    datasets: &[&DatasetDef],
    count: usize,
) -> VecDeque<Plan> {
    (0..count)
        .map(|i| {
            let def = datasets[i % datasets.len()];
            let mut rng = sub_rng(seed, conn, slot, i as u64);
            Plan {
                learner,
                population,
                dataset: def.name.clone(),
                size: def.relation.objects.len().max(1),
                target: random_target(learner, arity(def), &mut rng),
                seed: fnv1a(
                    [seed, conn, slot, i as u64, 1]
                        .iter()
                        .flat_map(|v| v.to_le_bytes()),
                ),
            }
        })
        .collect()
}

/// `per_def` random queries over each dataset, as `evaluate_batch` inputs.
fn eval_cases(seed: u64, defs: &[&DatasetDef], per_def: usize) -> Vec<EvalCase> {
    let mut cases = Vec::new();
    for (i, def) in defs.iter().enumerate() {
        let mut rng = sub_rng(seed, 10, i as u64, 0);
        for k in 0..per_def {
            let learner = if k % 2 == 0 {
                LearnerKind::Qhorn1
            } else {
                LearnerKind::RolePreserving
            };
            // Role-preserving targets need at least three propositions.
            let learner = if arity(def) < 8 {
                LearnerKind::Qhorn1
            } else {
                learner
            };
            cases.push(EvalCase {
                dataset: def.name.clone(),
                size: def.relation.objects.len().max(1),
                query: qhorn_lang::printer::to_ascii(&random_target(learner, arity(def), &mut rng)),
            });
        }
    }
    cases
}

/// Every evaluation case once, in a seeded order.
fn eval_order(rng: &mut SmallRng, evals: usize) -> SlotSpec {
    let mut order: Vec<usize> = (0..evals).collect();
    rand::seq::SliceRandom::shuffle(order.as_mut_slice(), rng);
    SlotSpec::Evals(order)
}

impl Workload {
    /// Builds the named workload's inputs from `seed`.
    pub fn build(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "many_users_qhorn1" => Some(Self::many_users(seed)),
            "wide_role_preserving_durable" => Some(Self::wide(seed)),
            _ => None,
        }
    }

    /// Hundreds of qhorn1 dialogues open per connection over small
    /// generated datasets (arity 3–12), in the three scripted populations
    /// of `qhorn_bench::load`; one turn in four evaluates a query over
    /// one of the same datasets.
    fn many_users(seed: u64) -> Workload {
        /// Dialogues each connection keeps open.
        const OPEN_PER_CONN: usize = 256;
        let script = build_script(&LoadConfig {
            seed,
            sweep_sizes: vec![8, 24, 64],
            sweep_arities: vec![3, 6, 9, 12],
            dialogues_per_population: 8_000,
            target_rps: 0.0,
            connections: 2,
            max_questions: 2_000,
        });
        let evals = eval_cases(seed, &script.datasets.iter().collect::<Vec<_>>(), 4);
        let mut queues: [Vec<VecDeque<Plan>>; 2] =
            std::array::from_fn(|_| vec![VecDeque::new(); OPEN_PER_CONN]);
        for (j, d) in script.dialogues.iter().enumerate() {
            queues[j % 2][(j / 2) % OPEN_PER_CONN].push_back(Plan {
                learner: LearnerKind::Qhorn1,
                population: d.population,
                dataset: d.dataset.clone(),
                size: d.size,
                target: d.target.clone(),
                seed: d.seed,
            });
        }
        let conns = std::array::from_fn(|c| {
            let queues = std::mem::take(&mut queues[c]);
            let mut slots: Vec<SlotSpec> = queues.into_iter().map(SlotSpec::Dialogues).collect();
            slots.push(eval_order(&mut sub_rng(seed, 11, c as u64, 0), evals.len()));
            slots
        });
        let order = std::array::from_fn(|_| {
            let mut order = Vec::new();
            for i in 0..OPEN_PER_CONN {
                order.push(i);
                if i % 3 == 2 {
                    order.push(OPEN_PER_CONN);
                }
            }
            order
        });
        Workload {
            name: "many_users_qhorn1",
            uploads: script.datasets,
            durable: false,
            rate_per_conn: 1_000.0,
            conns,
            order,
            evals,
        }
    }

    /// Few long role-preserving dialogues at arity 24–48 over a durable
    /// store, beside a qhorn1 minority, a trickle of users who walk away
    /// early, and evaluations over the same datasets. Each long slot keeps its
    /// arity, so the arity mix of the answers is the same whatever the
    /// seed.
    fn wide(seed: u64) -> Workload {
        let uploads: Vec<DatasetDef> = sweep(seed, &[64], &[24, 32, 40, 48])
            .iter()
            .map(|p| verified(generate_dataset(p)))
            .collect();
        let all: Vec<&DatasetDef> = uploads.iter().collect();
        let evals = eval_cases(seed, &all, 8);
        let conns = std::array::from_fn(|c| {
            let c64 = c as u64;
            let slot = |slot: u64, learner, population, defs: &[&DatasetDef], count| {
                SlotSpec::Dialogues(plans(seed, (c64, slot), learner, population, defs, count))
            };
            vec![
                slot(
                    0,
                    LearnerKind::RolePreserving,
                    Population::Compliant,
                    &[&uploads[c]],
                    16,
                ),
                slot(
                    1,
                    LearnerKind::RolePreserving,
                    Population::Compliant,
                    &[&uploads[c + 2]],
                    16,
                ),
                // One arity for every user who walks away, so that their
                // creates, most of this workload's, form one cluster.
                slot(
                    2,
                    LearnerKind::RolePreserving,
                    Population::Abandoning,
                    &[&uploads[1]],
                    2_048,
                ),
                slot(3, LearnerKind::Qhorn1, Population::Compliant, &all, 256),
                eval_order(&mut sub_rng(seed, 11, c64, 0), evals.len()),
            ]
        });
        Workload {
            name: "wide_role_preserving_durable",
            uploads,
            durable: true,
            rate_per_conn: 120.0,
            conns,
            // Per 12 turns: 4 long role-preserving answers, one qhorn1
            // step, one step of a user who walks away, six evaluations.
            order: std::array::from_fn(|_| vec![0, 4, 1, 4, 3, 4, 0, 4, 1, 4, 2, 4]),
            evals,
        }
    }

    /// Builds, here, the store the service builds for an uploaded dataset.
    pub fn build_store(&self, name: &str) -> (DataStore, DomainHints) {
        let def = self
            .uploads
            .iter()
            .find(|d| d.name == name)
            .expect("every dataset the script names is uploaded");
        let bridge = def.validate().expect("generated datasets validate");
        let store = DataStore::from_relation(def.relation.clone(), bridge)
            .expect("generated datasets build");
        (store, def.hints.clone())
    }

    /// Fingerprint of every generated input: datasets, dialogue plans,
    /// reads and evaluation cases.
    pub fn script_hash(&self) -> u64 {
        let mut text = String::new();
        for def in &self.uploads {
            text.push_str(&qhorn_json::to_string(def));
        }
        for (c, slots) in self.conns.iter().enumerate() {
            for (s, slot) in slots.iter().enumerate() {
                text.push_str(&format!("conn{c}slot{s}:"));
                match slot {
                    SlotSpec::Dialogues(plans) => {
                        for p in plans {
                            text.push_str(&qhorn_json::to_string(p));
                        }
                    }
                    SlotSpec::Evals(order) => text.push_str(&format!("{order:?}")),
                }
            }
        }
        for e in &self.evals {
            text.push_str(&format!("{}/{}:{};", e.dataset, e.size, e.query));
        }
        text.push_str(&format!(
            "order={:?};rate={}",
            self.order, self.rate_per_conn
        ));
        fnv1a(text.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script() {
        for name in NAMES {
            let a = Workload::build(name, 7).unwrap().script_hash();
            let b = Workload::build(name, 7).unwrap().script_hash();
            let c = Workload::build(name, 8).unwrap().script_hash();
            assert_eq!(a, b, "{name}");
            assert_ne!(a, c, "{name}");
        }
    }

    #[test]
    fn eval_queries_parse_at_their_arity() {
        for name in NAMES {
            let w = Workload::build(name, 3).unwrap();
            assert!(!w.evals.is_empty(), "{name}");
            for e in &w.evals {
                let def = w.uploads.iter().find(|d| d.name == e.dataset).unwrap();
                qhorn_lang::parse_with_arity(&e.query, arity(def)).unwrap();
            }
        }
    }

    #[test]
    fn uploads_fit_one_request_line() {
        for name in NAMES {
            for seed in [1, 2] {
                for def in Workload::build(name, seed).unwrap().uploads {
                    assert!(
                        qhorn_json::to_string(&def).len() < 900 << 10,
                        "{}",
                        def.name
                    );
                }
            }
        }
    }
}
