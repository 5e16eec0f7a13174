//! Differential test: the synthesizer against independent references.
//!
//! Bindings: generated sweep datasets at arities 1–64 (Bool/Int/Str
//! attributes), hand-built interfering ones — `pm`/`pb` both on
//! `origin`, and nested `cocoa ≥` ranges — and one that crowds more than
//! [`TABLE_PROPS`] propositions onto single attributes, so their values
//! are solved per tuple instead of looked up. For each binding:
//! * every truth pattern of every attribute's propositions gets the
//!   value, or the error, that [`reference_value`] — a fresh
//!   [`AttrConstraints`] solve — gives it;
//! * random Boolean tuples, and every tuple of every question a
//!   role-preserving learner asks, synthesize exactly the tuple of
//!   [`reference_tuple`]; a realizable one is one that [`naive_eval`]
//!   (the generator's reference evaluator, sharing no code with the
//!   binding) maps back to the same bits, and an unrealizable one fails
//!   with the reference's [`SynthesisError`];
//! * the text of every question the learner asks is [`render`] of the
//!   reference object, or the reference's error.

use qhorn_core::learn::{learn_role_preserving, LearnOptions};
use qhorn_core::oracle::FnOracle;
use qhorn_core::query::classes::is_role_preserving;
use qhorn_core::{BoolTuple, Expr, Obj, Query, VarId, VarSet};
use qhorn_relation::binding::Booleanizer;
use qhorn_relation::datasets::chocolates;
use qhorn_relation::generate::{generate_dataset, naive_eval, sweep, GenRng};
use qhorn_relation::interference::AttrConstraints;
use qhorn_relation::proposition::{Cmp, Proposition};
use qhorn_relation::relation::{DataTuple, NestedObject};
use qhorn_relation::schema::{Attr, FlatSchema};
use qhorn_relation::synthesize::{DomainHints, SynthesisError, Synthesizer, TABLE_PROPS};
use qhorn_relation::value::{AttrType, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

/// Random patterns tried per binding, besides the learner's.
const RANDOM_PATTERNS: usize = 200;

/// Attributes with more propositions than this have a random sample of
/// their patterns checked, not all of them.
const ALL_PATTERNS_UP_TO: usize = 12;

/// The value synthesis must give attribute `a` for `bt`: its first hint
/// (else a fixed value of its type) when no proposition is on it, else a
/// value solving the conjunction of its propositions (in variable order)
/// with `bt`'s signs, or the error naming them.
fn reference_value(
    bridge: &Booleanizer,
    hints: &DomainHints,
    a: usize,
    bt: &BoolTuple,
) -> Result<Value, SynthesisError> {
    let attr = &bridge.schema().attrs()[a];
    let pool = hints
        .entries()
        .find(|(name, _)| *name == attr.name)
        .map_or(&[][..], |(_, values)| values);
    let mut constraints = AttrConstraints::new();
    let mut involved = Vec::new();
    for (i, p) in bridge.props().iter().enumerate() {
        if p.attr == attr.name {
            let wanted = bt.get(VarId(i as u16));
            constraints.add(p.cmp, &p.rhs, wanted);
            involved.push((p.name.clone(), wanted));
        }
    }
    if involved.is_empty() {
        return Ok(pool.first().cloned().unwrap_or(match attr.ty {
            AttrType::Bool => Value::Bool(false),
            AttrType::Int => Value::Int(0),
            AttrType::Str => Value::str("unspecified"),
        }));
    }
    constraints.solve(pool).ok_or_else(|| SynthesisError {
        attr: attr.name.clone(),
        constraints: involved,
    })
}

/// The tuple synthesis must build for `bt`, or the error it must report:
/// that of the first attribute, in schema order, that admits no value.
fn reference_tuple(
    bridge: &Booleanizer,
    hints: &DomainHints,
    bt: &BoolTuple,
) -> Result<DataTuple, SynthesisError> {
    (0..bridge.schema().arity())
        .map(|a| reference_value(bridge, hints, a, bt))
        .collect::<Result<Vec<Value>, SynthesisError>>()
        .map(DataTuple::new)
}

/// `attrs ⟨t1, t2, …⟩`, formatted value by value: how a question's text
/// was written before the synthesizer rendered each value once.
fn render(obj: &NestedObject) -> String {
    let mut out = String::new();
    let _ = write!(out, "{} ⟨", obj.attrs);
    for (i, t) in obj.tuples.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{t}");
    }
    out.push('⟩');
    out
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

/// Every question a role-preserving learner asks when its user answers
/// from a target over `n` variables.
fn learner_questions(n: u16, rng: &mut GenRng) -> Vec<Obj> {
    let target = target(n, rng);
    let mut questions = Vec::new();
    learn_role_preserving(
        n,
        &mut FnOracle(|q: &Obj| {
            questions.push(q.clone());
            target.eval(q)
        }),
        &LearnOptions::default(),
    )
    .expect("the learner reaches its target");
    questions
}

fn random_pattern(n: u16, rng: &mut GenRng) -> BoolTuple {
    let trues: VarSet = (0..n).filter(|_| rng.flip()).map(VarId).collect();
    BoolTuple::from_true_set(n, trues)
}

/// Checks every attribute's patterns against [`reference_value`], then
/// every tuple pattern and learner question against the references;
/// returns how many tuple patterns were unrealizable.
fn check_binding(label: &str, bridge: &Booleanizer, hints: &DomainHints, seed: u64) -> usize {
    let n = bridge.n();
    let synth = Synthesizer::new(bridge, hints);
    let schema = bridge.schema();
    let mut rng = GenRng::new(seed);
    for (a, attr) in schema.attrs().iter().enumerate() {
        let on: Vec<u16> = (0..n)
            .filter(|&i| bridge.props()[usize::from(i)].attr == attr.name)
            .collect();
        let patterns: Vec<u64> = if on.len() <= ALL_PATTERNS_UP_TO {
            (0..1u64 << on.len()).collect()
        } else {
            (0..1 << ALL_PATTERNS_UP_TO)
                .map(|_| rng.next_u64())
                .collect()
        };
        for pattern in patterns {
            let trues: VarSet = on
                .iter()
                .enumerate()
                .filter(|&(j, _)| pattern >> j & 1 == 1)
                .map(|(_, &i)| VarId(i))
                .collect();
            let bt = BoolTuple::from_true_set(n, trues);
            assert_eq!(
                synth.attr_value(a, &bt),
                reference_value(bridge, hints, a, &bt),
                "{label}: attribute {} under {bt}",
                attr.name
            );
        }
    }
    let questions = learner_questions(n, &mut rng);
    let mut patterns: BTreeSet<BoolTuple> = questions
        .iter()
        .flat_map(|q| q.tuples().iter().cloned())
        .collect();
    patterns.extend((0..RANDOM_PATTERNS).map(|_| random_pattern(n, &mut rng)));
    let mut unrealizable = 0;
    let mut references = BTreeMap::new();
    for bt in patterns {
        let synthesized = synth.synthesize_tuple(&bt);
        let reference = reference_tuple(bridge, hints, &bt);
        assert_eq!(synthesized, reference, "{label}: {bt}");
        match &synthesized {
            Ok(tuple) => {
                for (i, p) in bridge.props().iter().enumerate() {
                    assert_eq!(
                        naive_eval(p, tuple, schema),
                        Some(bt.get(VarId(i as u16))),
                        "{label}: {bt} realized as {tuple}, wrong for {p}"
                    );
                }
            }
            Err(_) => unrealizable += 1,
        }
        references.insert(bt, reference);
    }
    let attrs = DataTuple::new([Value::str("example box")]);
    let attrs_text = attrs.to_string();
    for q in &questions {
        let reference = q
            .tuples()
            .iter()
            .map(|bt| references[bt].clone())
            .collect::<Result<Vec<DataTuple>, SynthesisError>>()
            .map(|tuples| render(&NestedObject::new(attrs.clone(), tuples)));
        assert_eq!(
            synth.render_object(q, &attrs_text),
            reference,
            "{label}: {q}"
        );
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

#[test]
fn crowded_attributes_are_solved_per_tuple() {
    // Ten propositions on `cocoa` and nine on `origin`, more than a
    // table holds; `isDark` keeps one.
    let mut props: Vec<Proposition> = (0..5)
        .map(|k| Proposition::new(&format!("ge{k}"), "cocoa", Cmp::Ge, Value::Int(20 * k)))
        .collect();
    props.extend([
        Proposition::new("lt90", "cocoa", Cmp::Lt, Value::Int(90)),
        Proposition::new("le35", "cocoa", Cmp::Le, Value::Int(35)),
        Proposition::new("gt50", "cocoa", Cmp::Gt, Value::Int(50)),
        Proposition::eq("is70", "cocoa", Value::Int(70)),
        Proposition::new("not30", "cocoa", Cmp::Ne, Value::Int(30)),
        Proposition::is_true("dark", "isDark"),
    ]);
    props.extend(
        [
            "Belgium",
            "Madagascar",
            "Peru",
            "Ghana",
            "Ecuador",
            "Sweden",
            "Italy",
            "Spain",
        ]
        .map(|o| Proposition::eq(&format!("o_{o}"), "origin", Value::str(o))),
    );
    props.push(Proposition::new(
        "not_peru",
        "origin",
        Cmp::Ne,
        Value::str("Peru"),
    ));
    let bridge = Booleanizer::new(
        FlatSchema::new([
            Attr::new("cocoa", AttrType::Int),
            Attr::new("isDark", AttrType::Bool),
            Attr::new("origin", AttrType::Str),
        ])
        .expect("distinct names"),
        props,
    )
    .expect("valid binding");
    for attr in ["cocoa", "origin"] {
        let on = bridge.props().iter().filter(|p| p.attr == attr).count();
        assert!(on > TABLE_PROPS, "{attr}: {on} propositions fit a table");
    }
    for (label, hints) in [
        ("crowded", DomainHints::none()),
        (
            "crowded+hints",
            DomainHints::none()
                .with("cocoa", vec![Value::Int(70), Value::Int(10)])
                .with("origin", vec![Value::str("Peru"), Value::str("Chile")]),
        ),
    ] {
        let unrealizable = check_binding(label, &bridge, &hints, 3);
        assert!(unrealizable > 0, "{label}: no pattern hit the interference");
    }
}
