//! Integration tests for `tm-support` itself: the support crate is the
//! foundation the fuzzer, property suite, and bench harnesses stand on,
//! so its own guarantees (determinism, unbiased sampling, exact JSON
//! bytes, replayable failure reports) get direct coverage here.

use tm_support::bench::Runner;
use tm_support::prop::{self, Config};
use tm_support::{prop_assert, prop_assert_eq, Json, TmRng};

// ---------------------------------------------------------------- PRNG

#[test]
fn prng_identical_seeds_identical_streams() {
    for seed in [0u64, 1, 42, u64::MAX, 0xdead_beef] {
        let mut a = TmRng::seed_from_u64(seed);
        let mut b = TmRng::seed_from_u64(seed);
        for _ in 0..256 {
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
        }
    }
}

#[test]
fn prng_different_seeds_differ() {
    let mut outputs = std::collections::HashSet::new();
    for seed in 0..64u64 {
        let mut rng = TmRng::seed_from_u64(seed);
        assert!(outputs.insert(rng.next_u64()), "seed {seed} collided");
    }
}

#[test]
fn prng_range_distribution_sanity() {
    // 16 buckets × 16k draws: each bucket expects 1000 hits; a fair
    // sampler stays well within ±20% (the binomial std-dev is ~31).
    let mut rng = TmRng::seed_from_u64(2026);
    let mut buckets = [0u32; 16];
    for _ in 0..16_000 {
        buckets[rng.gen_range(0usize..16)] += 1;
    }
    for (i, &count) in buckets.iter().enumerate() {
        assert!(
            (800..=1200).contains(&count),
            "bucket {i} wildly off: {count}/16000 (expected ~1000)"
        );
    }
}

#[test]
fn prng_float_range_distribution_sanity() {
    let mut rng = TmRng::seed_from_u64(7);
    let draws: Vec<f64> = (0..10_000).map(|_| rng.gen_range(-3.0..3.0)).collect();
    assert!(draws.iter().all(|d| (-3.0..3.0).contains(d)));
    let mean = draws.iter().sum::<f64>() / draws.len() as f64;
    assert!(mean.abs() < 0.1, "mean of uniform(-3,3) should be ~0, got {mean}");
    let below = draws.iter().filter(|d| **d < 0.0).count();
    assert!((4_500..=5_500).contains(&below), "sign split off: {below}/10000");
}

#[test]
fn prng_bool_probability() {
    let mut rng = TmRng::seed_from_u64(11);
    let hits = (0..10_000).filter(|_| rng.gen_bool(0.35)).count();
    assert!((3_000..=4_000).contains(&hits), "gen_bool(0.35) hit {hits}/10000");
}

// ---------------------------------------------------------------- JSON

#[test]
fn json_escaping_against_hand_written_strings() {
    let cases: &[(&str, &str)] = &[
        ("plain", r#""plain""#),
        ("quote\"backslash\\", r#""quote\"backslash\\""#),
        ("tab\tnewline\ncr\r", r#""tab\tnewline\ncr\r""#),
        ("nul\u{0}bell\u{7}", "\"nul\\u0000bell\\u0007\""),
        ("unicode: π ≈ 3.14159", r#""unicode: π ≈ 3.14159""#),
    ];
    for (input, expected) in cases {
        assert_eq!(&Json::from(*input).to_string(), expected, "input {input:?}");
    }
}

#[test]
fn json_numbers_round_trip_through_rust_parsing() {
    // No parser in-tree, but every emitted number must parse back to the
    // exact value with std's (round-trip-accurate) float parsing.
    for v in [0.0, 2.0, -2.5, 0.1, 1.0 / 3.0, 6.25e-4, 1.23456789e300] {
        let s = Json::Float(v).to_string();
        assert_eq!(s.parse::<f64>().expect(&s), v, "emitted {s}");
    }
    for v in [0i64, -1, i64::MIN, i64::MAX] {
        assert_eq!(Json::Int(v).to_string().parse::<i64>().unwrap(), v);
    }
}

#[test]
fn json_results_schema_shape() {
    // The shape the `bench` documents take: object → records array →
    // per-record objects. Guard the exact bytes of a miniature instance.
    let doc = Json::obj([
        ("repeats", Json::from(2u32)),
        (
            "programs",
            Json::Array(vec![Json::obj([
                ("name", Json::from("bitops-bitwise-and")),
                ("tracing_speedup", Json::from(5.5)),
                ("untraceable_by_design", Json::from(false)),
            ])]),
        ),
    ]);
    let expected = "{\n  \"repeats\": 2,\n  \"programs\": [\n    {\n      \
                    \"name\": \"bitops-bitwise-and\",\n      \
                    \"tracing_speedup\": 5.5,\n      \
                    \"untraceable_by_design\": false\n    }\n  ]\n}";
    assert_eq!(doc.to_string_pretty(), expected);
}

// ---------------------------------------------------- property harness

#[test]
fn meta_property_harness_reports_seeded_counterexample() {
    // A property that fails for ~5% of draws: the harness must find a
    // counterexample, and the report must carry the case seed in the
    // documented format.
    let cfg = Config::with_cases(1_000);
    let failure = prop::run(&cfg, |g| {
        let n = g.gen_range(0u32..100);
        prop_assert!(n < 95, "n = {n}");
        Ok(())
    })
    .expect_err("a >= 95 draw must occur within 1000 cases");

    assert!(failure.message.contains("n = 9"), "message: {}", failure.message);
    let report = failure.report("demo_property");
    assert!(report.contains("property `demo_property` failed at case"), "{report}");
    assert!(report.contains(&format!("case seed {:#x}", failure.seed)), "{report}");
    assert!(report.contains(&format!("TM_PROP_SEED={:#x}", failure.seed)), "{report}");

    // Replaying from the reported seed alone reproduces the exact draw.
    let mut replay = TmRng::seed_from_u64(failure.seed);
    let n = replay.gen_range(0u32..100);
    assert!(n >= 95, "replay drew {n}, expected the counterexample");
    assert!(failure.message.contains(&format!("n = {n}")));
}

#[test]
fn meta_property_harness_passes_clean_properties() {
    prop::check("wrapping_add_commutes", &Config::with_cases(128), |g| {
        let (a, b) = (g.next_u32(), g.next_u32());
        prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        Ok(())
    });
}

// ------------------------------------------------------- bench harness

#[test]
fn bench_runner_samples_and_orders() {
    let mut runner = Runner::with_config(1, 9);
    let stats = runner
        .bench("meta-spin", || {
            let mut acc = 0u64;
            for i in 0..2_000u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            acc
        })
        .expect("unfiltered");
    assert_eq!(stats.samples.len(), 9);
    assert!(stats.min <= stats.median && stats.median <= stats.max);
    assert!(stats.min > std::time::Duration::ZERO);
}
