//! Serde round-trips for every serializable public type: configurations
//! and experiment payloads survive JSON encoding unchanged.

use atropos::{AtroposConfig, PolicyKind, ResourceId, ResourceType, TaskId, TaskKey};

#[test]
fn config_roundtrips_through_json() {
    let cfg = AtroposConfig::default()
        .with_slo_ns(123_456)
        .with_policy(PolicyKind::CurrentUsage);
    let json = serde_json::to_string(&cfg).unwrap();
    let back: AtroposConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.detector.slo_latency_ns, 123_456);
    assert_eq!(back.policy, PolicyKind::CurrentUsage);
    assert_eq!(back.cancel_min_interval_ns, cfg.cancel_min_interval_ns);
    assert_eq!(back.detector.min_contention, cfg.detector.min_contention);
    assert_eq!(back.ingest_stripes, cfg.ingest_stripes);
    assert_eq!(back.ingest_stripe_capacity, cfg.ingest_stripe_capacity);
    assert!(back.validate().is_ok());
}

#[test]
fn ids_roundtrip_through_json() {
    let ids = (TaskId(7), TaskKey(9), ResourceId(3), ResourceType::Memory);
    let json = serde_json::to_string(&ids).unwrap();
    let back: (TaskId, TaskKey, ResourceId, ResourceType) = serde_json::from_str(&json).unwrap();
    assert_eq!(back, ids);
}

#[test]
fn invalid_config_still_deserializes_but_fails_validation() {
    let mut cfg = AtroposConfig::default();
    cfg.detector.window_ns = 0;
    let json = serde_json::to_string(&cfg).unwrap();
    let back: AtroposConfig = serde_json::from_str(&json).unwrap();
    assert!(back.validate().is_err());
}

#[test]
fn all_policy_kinds_roundtrip() {
    for kind in [
        PolicyKind::MultiObjective,
        PolicyKind::Heuristic,
        PolicyKind::CurrentUsage,
    ] {
        let json = serde_json::to_string(&kind).unwrap();
        let back: PolicyKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, kind);
    }
}
