//! Property-based tests over random queries and objects (proptest).
//!
//! Invariants:
//! * learners are exact on every generated complete target;
//! * normalization preserves semantics on random objects;
//! * compiled plans agree with interpreted evaluation;
//! * verification sets are self-consistent and sound;
//! * printers round-trip through the parser;
//! * data synthesis inverts booleanization.

use proptest::prelude::*;
use qhorn::core::learn::{learn_qhorn1, learn_role_preserving, LearnOptions};
use qhorn::core::oracle::QueryOracle;
use qhorn::core::query::equiv::equivalent;
use qhorn::core::verify::VerificationSet;
use qhorn::core::{BoolTuple, Obj, Query, VarId, VarSet};
use qhorn::engine::plan::CompiledQuery;
use qhorn::sim::genquery::{random_qhorn1, random_role_preserving, RolePreservingParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a random object over `n` variables (possibly empty).
fn arb_object(n: u16) -> impl Strategy<Value = Obj> {
    prop::collection::vec(0u32..(1 << n), 0..6).prop_map(move |masks| {
        Obj::new(
            n,
            masks.into_iter().map(|m| {
                let trues: VarSet = (0..n).filter(|i| m & (1 << i) != 0).map(VarId).collect();
                BoolTuple::from_true_set(n, trues)
            }),
        )
    })
}

/// Strategy: a random complete qhorn-1 query via the sim generator.
fn arb_qhorn1(n: u16) -> impl Strategy<Value = Query> {
    any::<u64>().prop_map(move |seed| random_qhorn1(n, &mut SmallRng::seed_from_u64(seed)))
}

/// Strategy: a random complete role-preserving query.
fn arb_role_preserving(n: u16) -> impl Strategy<Value = Query> {
    any::<u64>().prop_map(move |seed| {
        let params = RolePreservingParams {
            heads: (n as usize / 3).max(1),
            theta: 2,
            body_size: (1, 3),
            conjunctions: 2,
            conj_size: (1, n as usize),
        };
        random_role_preserving(n, &params, &mut SmallRng::seed_from_u64(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qhorn1_learner_is_exact(target in arb_qhorn1(7)) {
        let mut oracle = QueryOracle::new(target.clone());
        let outcome = learn_qhorn1(7, &mut oracle, &LearnOptions::default()).unwrap();
        prop_assert!(equivalent(outcome.query(), &target), "{target}");
    }

    #[test]
    fn role_preserving_learner_is_exact(target in arb_role_preserving(6)) {
        let mut oracle = QueryOracle::new(target.clone());
        let outcome = learn_role_preserving(6, &mut oracle, &LearnOptions::default()).unwrap();
        prop_assert!(equivalent(outcome.query(), &target), "{target}");
    }

    #[test]
    fn normalization_preserves_semantics(
        target in arb_role_preserving(5),
        obj in arb_object(5),
    ) {
        let canon = target.normal_form().to_query();
        prop_assert_eq!(target.accepts(&obj), canon.accepts(&obj), "{} on {}", target, obj);
    }

    #[test]
    fn compiled_plan_agrees_with_interpreter(
        target in arb_role_preserving(5),
        obj in arb_object(5),
    ) {
        let plan = CompiledQuery::compile(&target);
        prop_assert_eq!(plan.matches(&obj), target.accepts(&obj), "{} on {}", target, obj);
    }

    #[test]
    fn verification_set_self_consistent(target in arb_role_preserving(5)) {
        let set = VerificationSet::build(&target).unwrap();
        // The intended user agrees with every expected label.
        let outcome = set.verify(&mut QueryOracle::new(target.clone()));
        prop_assert!(outcome.is_verified());
    }

    #[test]
    fn verification_detects_known_differences(
        a in arb_role_preserving(4),
        b in arb_role_preserving(4),
    ) {
        // Soundness: if verification passes, the queries are equivalent.
        let set = VerificationSet::build(&a).unwrap();
        let verified = set.verify(&mut QueryOracle::new(b.clone())).is_verified();
        if verified {
            prop_assert!(
                equivalent(&a, &b),
                "verification accepted inequivalent queries:\n  a = {}\n  b = {}",
                a,
                b
            );
        } else {
            prop_assert!(!equivalent(&a, &b));
        }
    }

    #[test]
    fn printers_round_trip(target in arb_qhorn1(6)) {
        let unicode = qhorn::lang::printer::to_unicode(&target);
        prop_assert_eq!(&qhorn::lang::parse(&unicode).unwrap(), &target);
        let ascii = qhorn::lang::printer::to_ascii(&target);
        prop_assert_eq!(&qhorn::lang::parse(&ascii).unwrap(), &target);
    }

    #[test]
    fn distance_zero_iff_equivalent(
        a in arb_role_preserving(4),
        b in arb_role_preserving(4),
    ) {
        use qhorn::core::learn::revision::distance;
        prop_assert_eq!(distance(&a, &b) == 0, equivalent(&a, &b));
        prop_assert_eq!(distance(&a, &b), distance(&b, &a));
        prop_assert_eq!(distance(&a, &a), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthesis_inverts_booleanization(seed in any::<u64>(), arity in 1usize..=64, mask in any::<u64>()) {
        // Chocolates' 3 variables, and a generated binding of `arity`
        // propositions (at most one per attribute, so every pattern is
        // realizable).
        use qhorn::relation::datasets::chocolates;
        use qhorn::relation::generate::{generate_dataset, sweep};
        use qhorn::relation::synthesize::Synthesizer;
        let generated = generate_dataset(&sweep(seed, &[1], &[arity])[0]);
        let bindings = [
            (chocolates::booleanizer(), chocolates::hints()),
            (generated.validate().unwrap(), generated.hints),
        ];
        for (bridge, hints) in &bindings {
            let n = bridge.n();
            let synth = Synthesizer::new(bridge, hints);
            let trues: VarSet = (0..n).filter(|i| mask >> i & 1 == 1).map(VarId).collect();
            let bt = BoolTuple::from_true_set(n, trues);
            let tuple = synth.synthesize_tuple(&bt).unwrap();
            prop_assert_eq!(bridge.booleanize_tuple(&tuple).unwrap(), bt);
        }
    }

    #[test]
    fn free_variable_detection_is_sound(seed in any::<u64>()) {
        // Drop a variable from a complete target and re-learn with the
        // free-variable scan enabled.
        use qhorn::core::learn::free_vars::detect_free_variables;
        let target = random_qhorn1(5, &mut SmallRng::seed_from_u64(seed));
        // Lift to 6 variables, leaving x6 unmentioned.
        let lifted = Query::new(6, target.exprs().iter().cloned()).unwrap();
        let mut oracle = QueryOracle::new(lifted.clone());
        let (free, _) = detect_free_variables(6, &mut oracle, &LearnOptions::default()).unwrap();
        prop_assert_eq!(free, VarSet::singleton(VarId(5)));
        let opts = LearnOptions { detect_free_variables: true, ..Default::default() };
        let mut oracle = QueryOracle::new(lifted.clone());
        let outcome = learn_qhorn1(6, &mut oracle, &opts).unwrap();
        prop_assert!(equivalent(outcome.query(), &lifted));
    }
}
