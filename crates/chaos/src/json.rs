//! Replayable repro format: a [`ChaosScenario`] round-trips through the
//! workspace's one JSON value type, [`cta_telemetry::JsonValue`], so a
//! failing seed's *minimized* form can be written next to the sweep
//! outputs and fed back through `chaos_sweep --replay`.

use cta_serve::{
    CrashWindow, FaultPlan, GrayFailure, LinkStall, Partition, RoutingPolicy, Slowdown, ZoneOutage,
};
use cta_telemetry::JsonValue;

use crate::{ChaosScenario, MAX_REPLICAS, MAX_REQUESTS};

fn window(replica: usize, from: f64, until: f64) -> JsonValue {
    JsonValue::obj(vec![
        ("replica", JsonValue::Int(replica as i64)),
        ("from_s", JsonValue::Num(from)),
        ("until_s", JsonValue::Num(until)),
    ])
}

fn plan_to_json(plan: &FaultPlan) -> JsonValue {
    JsonValue::obj(vec![
        (
            "crashes",
            JsonValue::Arr(
                plan.crashes
                    .iter()
                    .map(|c| {
                        JsonValue::obj(vec![
                            ("replica", JsonValue::Int(c.replica as i64)),
                            ("down_s", JsonValue::Num(c.down_s)),
                            ("up_s", c.up_s.map_or(JsonValue::Null, JsonValue::Num)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("zones", JsonValue::Arr(plan.zones.iter().map(|&z| JsonValue::Int(z as i64)).collect())),
        (
            "zone_outages",
            JsonValue::Arr(
                plan.zone_outages
                    .iter()
                    .map(|z| {
                        JsonValue::obj(vec![
                            ("zone", JsonValue::Int(z.zone as i64)),
                            ("down_s", JsonValue::Num(z.down_s)),
                            ("up_s", z.up_s.map_or(JsonValue::Null, JsonValue::Num)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "partitions",
            JsonValue::Arr(
                plan.partitions.iter().map(|p| window(p.replica, p.from_s, p.until_s)).collect(),
            ),
        ),
        (
            "gray",
            JsonValue::Arr(
                plan.gray
                    .iter()
                    .map(|g| {
                        JsonValue::obj(vec![
                            ("replica", JsonValue::Int(g.replica as i64)),
                            ("from_s", JsonValue::Num(g.from_s)),
                            ("until_s", JsonValue::Num(g.until_s)),
                            ("severity", JsonValue::Num(g.severity)),
                            // u64 seeds ride bit-cast through i64.
                            ("seed", JsonValue::Int(g.seed as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "slowdowns",
            JsonValue::Arr(
                plan.slowdowns
                    .iter()
                    .map(|s| {
                        JsonValue::obj(vec![
                            ("replica", JsonValue::Int(s.replica as i64)),
                            ("from_s", JsonValue::Num(s.from_s)),
                            ("until_s", JsonValue::Num(s.until_s)),
                            ("factor", JsonValue::Num(s.factor)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "link_stalls",
            JsonValue::Arr(
                plan.link_stalls
                    .iter()
                    .map(|l| {
                        JsonValue::obj(vec![
                            ("replica", JsonValue::Int(l.replica as i64)),
                            ("from_s", JsonValue::Num(l.from_s)),
                            ("until_s", JsonValue::Num(l.until_s)),
                            ("factor", JsonValue::Num(l.factor)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn plan_from_json(v: &JsonValue) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::none();
    for c in v.arr("crashes")? {
        plan.crashes.push(CrashWindow {
            replica: c.uint("replica")?,
            down_s: c.num("down_s")?,
            up_s: match c.field("up_s")? {
                JsonValue::Null => None,
                _ => Some(c.num("up_s")?),
            },
        });
    }
    plan.zones = v
        .arr("zones")?
        .iter()
        .map(|z| match z {
            JsonValue::Int(x) if *x >= 0 => Ok(*x as usize),
            _ => Err("zone map entries must be non-negative integers".to_string()),
        })
        .collect::<Result<_, _>>()?;
    for z in v.arr("zone_outages")? {
        plan.zone_outages.push(ZoneOutage {
            zone: z.uint("zone")?,
            down_s: z.num("down_s")?,
            up_s: match z.field("up_s")? {
                JsonValue::Null => None,
                _ => Some(z.num("up_s")?),
            },
        });
    }
    for p in v.arr("partitions")? {
        plan.partitions.push(Partition {
            replica: p.uint("replica")?,
            from_s: p.num("from_s")?,
            until_s: p.num("until_s")?,
        });
    }
    for g in v.arr("gray")? {
        plan.gray.push(GrayFailure {
            replica: g.uint("replica")?,
            from_s: g.num("from_s")?,
            until_s: g.num("until_s")?,
            severity: g.num("severity")?,
            seed: g.int("seed")? as u64,
        });
    }
    for s in v.arr("slowdowns")? {
        plan.slowdowns.push(Slowdown {
            replica: s.uint("replica")?,
            from_s: s.num("from_s")?,
            until_s: s.num("until_s")?,
            factor: s.num("factor")?,
        });
    }
    for l in v.arr("link_stalls")? {
        plan.link_stalls.push(LinkStall {
            replica: l.uint("replica")?,
            from_s: l.num("from_s")?,
            until_s: l.num("until_s")?,
            factor: l.num("factor")?,
        });
    }
    Ok(plan)
}

impl ChaosScenario {
    /// The scenario as a JSON value (see `chaos_sweep --replay`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("seed", JsonValue::Int(self.seed as i64)),
            ("replicas", JsonValue::Int(self.replicas as i64)),
            ("requests", JsonValue::Int(self.requests as i64)),
            ("rate_rps", JsonValue::Num(self.rate_rps)),
            ("routing", JsonValue::Str(self.routing.label().into())),
            ("tenants", JsonValue::Int(self.tenants as i64)),
            ("brownout", JsonValue::Bool(self.brownout)),
            ("detector", JsonValue::Bool(self.detector)),
            ("sessions", JsonValue::Bool(self.sessions)),
            ("horizon_s", JsonValue::Num(self.horizon_s)),
            ("plan", plan_to_json(&self.plan)),
        ])
    }

    /// Parses a scenario back from [`Self::to_json`] output, validating
    /// the embedded plan against the parsed fleet width.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/ill-typed field, out-of-range
    /// value, or plan-validation failure. `replicas` and `requests` above
    /// [`MAX_REPLICAS`] / [`MAX_REQUESTS`] are out of range: no sampler
    /// setting draws them, and a replay would try to build that fleet.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let replicas = v.uint("replicas")?;
        let requests = v.uint("requests")?;
        let rate_rps = v.num("rate_rps")?;
        if replicas == 0 || requests == 0 {
            return Err("replicas and requests must be positive".into());
        }
        for (key, value, cap) in
            [("replicas", replicas, MAX_REPLICAS), ("requests", requests, MAX_REQUESTS)]
        {
            if value > cap {
                return Err(format!("field {key:?} is {value}, above the cap of {cap}"));
            }
        }
        if !(rate_rps > 0.0 && rate_rps.is_finite()) {
            return Err("rate_rps must be positive and finite".into());
        }
        let routing_label = v.str("routing")?;
        let routing = RoutingPolicy::parse(routing_label)
            .ok_or_else(|| format!("unknown routing policy {routing_label:?}"))?;
        let plan = plan_from_json(v.field("plan")?)?;
        plan.try_validate(replicas).map_err(|e| format!("invalid plan: {e}"))?;
        Ok(Self {
            seed: v.int("seed")? as u64,
            replicas,
            requests,
            rate_rps,
            routing,
            tenants: v.uint("tenants")?,
            brownout: v.bool("brownout")?,
            detector: v.bool("detector")?,
            sessions: v.bool("sessions")?,
            horizon_s: v.num("horizon_s")?,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChaosParams;
    use cta_telemetry::parse_json;

    #[test]
    fn scenarios_round_trip_through_json_text() {
        for seed in 0..32 {
            let sc = ChaosScenario::sample(seed, &ChaosParams::default());
            let text = sc.to_json().to_json();
            let back =
                ChaosScenario::from_json(&parse_json(&text).expect("parse")).expect("round-trip");
            assert_eq!(back, sc, "seed {seed}");
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        let missing = parse_json("{\"seed\": 1}").unwrap();
        assert!(ChaosScenario::from_json(&missing).unwrap_err().contains("replicas"));
        let sc = ChaosScenario::sample(1, &ChaosParams::default());
        let mut v = sc.to_json();
        if let JsonValue::Obj(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "routing" {
                    *val = JsonValue::Str("warp".into());
                }
            }
        }
        assert!(ChaosScenario::from_json(&v).unwrap_err().contains("routing"));
    }

    #[test]
    fn huge_fleet_sizes_are_rejected_by_name() {
        // A repro claiming 2^62 replicas or requests is refused before
        // any fleet is built; the cap itself still parses. Plan
        // validation keys its state by replica rather than allocating one
        // slot per replica, so it accepts the huge width on its own. (A
        // zone map must list every replica, so the case needs a plan with
        // crashes but no zone outage.)
        let sc = (0..64)
            .map(|seed| ChaosScenario::sample(seed, &ChaosParams::default()))
            .find(|sc| !sc.plan.crashes.is_empty() && sc.plan.zone_outages.is_empty())
            .expect("a crash-only plan among the first seeds");
        assert_eq!(sc.plan.try_validate(1 << 62), Ok(()));
        let text = sc.to_json().to_json();
        for (key, value, cap) in
            [("replicas", sc.replicas, MAX_REPLICAS), ("requests", sc.requests, MAX_REQUESTS)]
        {
            let from = format!("\"{key}\":{value}");
            assert!(text.contains(&from), "{text}");
            let with = |v: usize| {
                let edited = text.replacen(&from, &format!("\"{key}\":{v}"), 1);
                ChaosScenario::from_json(&parse_json(&edited).expect("parse"))
            };
            let err = with(1 << 62).expect_err("2^62 must be refused");
            assert!(err.contains(&format!("field \"{key}\"")) && err.contains("cap"), "{err}");
            assert!(with(cap).is_ok(), "{key} = {cap} must parse");
            assert!(with(cap + 1).is_err(), "{key} = {} must be refused", cap + 1);
        }
    }

    /// A repro file as `chaos_sweep` writes it: the envelope around the
    /// scenario with the most fault events among the first seeds.
    fn repro_text() -> String {
        let sc = (0..16)
            .map(|seed| ChaosScenario::sample(seed, &ChaosParams::default()))
            .max_by_key(ChaosScenario::plan_events)
            .expect("non-empty seed range");
        let violation = JsonValue::obj(vec![
            ("invariant", JsonValue::Str("conservation".into())),
            ("detail", JsonValue::Str("request 3 neither completed nor shed — \"lost\"".into())),
        ]);
        JsonValue::obj(vec![
            ("schema_version", JsonValue::Int(2)),
            ("scenario", sc.to_json()),
            ("violations", JsonValue::Arr(vec![violation])),
        ])
        .to_json()
    }

    /// What `chaos_sweep --replay` does with a file's text: parse it,
    /// unwrap the envelope, and rebuild the scenario.
    fn replay_parse(text: &str) -> Result<ChaosScenario, String> {
        let value = parse_json(text)?;
        ChaosScenario::from_json(value.field("scenario").unwrap_or(&value))
    }

    #[test]
    fn the_unmutated_repro_replays() {
        assert!(replay_parse(&repro_text()).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// One to three truncations, byte flips and byte insertions of a
        /// valid repro file parse to `Ok` or `Err`, never a panic. A
        /// mutation that breaks UTF-8 is skipped: `--replay` rejects such
        /// a file when reading it, before any parsing.
        #[test]
        fn mutated_repro_files_never_panic(edits in 1usize..4, seed in 0u64..u64::MAX) {
            let mut bytes = repro_text().into_bytes();
            let mut state = seed;
            let mut draw = |bound: usize| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((state >> 33) as usize) % bound.max(1)
            };
            for _ in 0..edits {
                let (op, at, byte) = (draw(3), draw(bytes.len()), draw(256) as u8);
                match op {
                    0 => bytes.truncate(at),
                    1 if !bytes.is_empty() => bytes[at] ^= byte.max(1),
                    _ => bytes.insert(at, byte),
                }
            }
            if let Ok(text) = String::from_utf8(bytes) {
                let _ = replay_parse(&text);
            }
        }
    }
}
