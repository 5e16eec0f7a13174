//! Differential test: the synthesizer against independent references.
//!
//! Bindings: generated sweep datasets at arities 1–64 (Bool/Int/Str
//! attributes), plus hand-built interfering ones — `pm`/`pb` both on
//! `origin`, and nested `cocoa ≥` ranges. Patterns: random Boolean
//! tuples, and every tuple of every question a role-preserving learner
//! asks over each binding. For each pattern:
//! * a realizable one must synthesize a tuple that [`naive_eval`] (the
//!   generator's reference evaluator, sharing no code with the binding)
//!   maps back to the same bits;
//! * an unrealizable one must fail with the same [`SynthesisError`] as
//!   [`reference_error`], a straight attributes × propositions scan.

use qhorn_core::learn::{learn_role_preserving, LearnOptions};
use qhorn_core::oracle::FnOracle;
use qhorn_core::query::classes::is_role_preserving;
use qhorn_core::{BoolTuple, Expr, Obj, Query, VarId, VarSet};
use qhorn_relation::binding::Booleanizer;
use qhorn_relation::datasets::chocolates;
use qhorn_relation::generate::{generate_dataset, naive_eval, sweep, GenRng};
use qhorn_relation::interference::AttrConstraints;
use qhorn_relation::proposition::{Cmp, Proposition};
use qhorn_relation::schema::{Attr, FlatSchema};
use qhorn_relation::synthesize::{DomainHints, SynthesisError, Synthesizer};
use qhorn_relation::value::{AttrType, Value};
use std::collections::BTreeSet;

/// Random patterns tried per binding, besides the learner's.
const RANDOM_PATTERNS: usize = 200;

/// The error synthesis must report for `bt`, or `None` when `bt` is
/// realizable: the first attribute, in schema order, whose propositions
/// (in variable order) admit no value.
fn reference_error(
    bridge: &Booleanizer,
    hints: &DomainHints,
    bt: &BoolTuple,
) -> Option<SynthesisError> {
    for attr in bridge.schema().attrs() {
        let mut constraints = AttrConstraints::new();
        let mut involved = Vec::new();
        for (i, p) in bridge.props().iter().enumerate() {
            if p.attr == attr.name {
                let wanted = bt.get(VarId(i as u16));
                constraints.add(p.cmp, &p.rhs, wanted);
                involved.push((p.name.clone(), wanted));
            }
        }
        let pool = hints
            .entries()
            .find(|(a, _)| *a == attr.name)
            .map_or(&[][..], |(_, values)| values);
        if !involved.is_empty() && constraints.solve(pool).is_none() {
            return Some(SynthesisError {
                attr: attr.name.clone(),
                constraints: involved,
            });
        }
    }
    None
}

/// A complete role-preserving target over `n` variables: a quarter of
/// the variables are universal heads with bodies drawn from the rest, and
/// random conjunctions cover every variable.
fn target(n: u16, rng: &mut GenRng) -> Query {
    let heads = usize::from(n) / 4;
    let mut exprs = Vec::new();
    for h in 0..heads {
        let body: VarSet = (0..1 + rng.below(3))
            .map(|_| VarId((heads as u64 + rng.below(u64::from(n) - heads as u64)) as u16))
            .collect();
        exprs.push(Expr::universal(body, VarId(h as u16)));
    }
    for _ in 0..1 + n / 8 {
        let conj: VarSet = (0..1 + rng.below(4))
            .map(|_| VarId(rng.below(u64::from(n)) as u16))
            .collect();
        exprs.push(Expr::conj(conj));
    }
    let mentioned: VarSet = exprs
        .iter()
        .flat_map(|e| e.participating_vars().to_vec())
        .collect();
    let missing = VarSet::full(n).difference(&mentioned);
    if !missing.is_empty() {
        exprs.push(Expr::conj(missing));
    }
    let q = Query::new(n, exprs).expect("variables are in range");
    assert!(is_role_preserving(&q), "{q}");
    q
}

/// Every distinct tuple of every question a role-preserving learner asks
/// when its user answers from a target over `n` variables.
fn learner_patterns(n: u16, rng: &mut GenRng) -> BTreeSet<BoolTuple> {
    let target = target(n, rng);
    let mut patterns = BTreeSet::new();
    learn_role_preserving(
        n,
        &mut FnOracle(|q: &Obj| {
            patterns.extend(q.tuples().iter().cloned());
            target.eval(q)
        }),
        &LearnOptions::default(),
    )
    .expect("the learner reaches its target");
    patterns
}

fn random_pattern(n: u16, rng: &mut GenRng) -> BoolTuple {
    let trues: VarSet = (0..n).filter(|_| rng.flip()).map(VarId).collect();
    BoolTuple::from_true_set(n, trues)
}

/// Checks every pattern against both references; returns how many were
/// unrealizable.
fn check_binding(label: &str, bridge: &Booleanizer, hints: &DomainHints, seed: u64) -> usize {
    let n = bridge.n();
    let mut rng = GenRng::new(seed);
    let mut patterns = learner_patterns(n, &mut rng);
    patterns.extend((0..RANDOM_PATTERNS).map(|_| random_pattern(n, &mut rng)));
    let synth = Synthesizer::new(bridge, hints);
    let schema = bridge.schema();
    let mut unrealizable = 0;
    for bt in &patterns {
        match synth.synthesize_tuple(bt) {
            Ok(tuple) => {
                assert_eq!(
                    reference_error(bridge, hints, bt),
                    None,
                    "{label}: {bt} synthesized"
                );
                for (i, p) in bridge.props().iter().enumerate() {
                    assert_eq!(
                        naive_eval(p, &tuple, schema),
                        Some(bt.get(VarId(i as u16))),
                        "{label}: {bt} realized as {tuple}, wrong for {p}"
                    );
                }
            }
            Err(err) => {
                unrealizable += 1;
                assert_eq!(
                    Some(err),
                    reference_error(bridge, hints, bt),
                    "{label}: {bt}"
                );
            }
        }
    }
    unrealizable
}

#[test]
fn generated_bindings_synthesize_what_the_reference_evaluates() {
    for params in sweep(0x5EED, &[8], &[1, 5, 12, 24, 48, 64]) {
        let def = generate_dataset(&params);
        let bridge = def.validate().expect("generated datasets validate");
        for ty in [AttrType::Bool, AttrType::Int, AttrType::Str] {
            assert!(
                bridge.props().iter().any(|p| p.rhs.attr_type() == ty) || bridge.n() < 3,
                "{}: no {ty} proposition",
                params.name()
            );
        }
        check_binding(&params.name(), &bridge, &def.hints, params.seed);
    }
}

#[test]
fn interfering_bindings_fail_exactly_where_the_reference_does() {
    // pm/pb on origin: pm ∧ pb is unrealizable.
    let origins = Booleanizer::new(
        chocolates::schema().embedded.clone(),
        vec![
            Proposition::is_true("p1", "isDark"),
            Proposition::eq("pm", "origin", Value::str("Madagascar")),
            Proposition::is_true("p2", "hasFilling"),
            Proposition::eq("pb", "origin", Value::str("Belgium")),
        ],
    )
    .expect("valid binding");
    // Nested cocoa ranges, split by another attribute: ≥90 without ≥70,
    // and ≥70 without ≥50, are unrealizable.
    let cocoa = Booleanizer::new(
        FlatSchema::new([
            Attr::new("cocoa", AttrType::Int),
            Attr::new("isDark", AttrType::Bool),
        ])
        .expect("distinct names"),
        vec![
            Proposition::new("vhi", "cocoa", Cmp::Ge, Value::Int(90)),
            Proposition::is_true("dark", "isDark"),
            Proposition::new("hi", "cocoa", Cmp::Ge, Value::Int(70)),
            Proposition::new("mid", "cocoa", Cmp::Ge, Value::Int(50)),
        ],
    )
    .expect("valid binding");
    for (label, bridge, hints) in [
        ("origins", &origins, DomainHints::none()),
        ("origins+hints", &origins, chocolates::hints()),
        ("cocoa", &cocoa, DomainHints::none()),
        (
            "cocoa+hints",
            &cocoa,
            DomainHints::none().with("cocoa", vec![Value::Int(95), Value::Int(10)]),
        ),
    ] {
        let unrealizable = check_binding(label, bridge, &hints, 7);
        assert!(unrealizable > 0, "{label}: no pattern hit the interference");
    }
}
