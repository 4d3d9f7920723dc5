//! The golden conformance corpus.
//!
//! Driver-vs-driver equivalence (slab ≡ reference ≡ walker ≡ sharded)
//! proves the execution engines agree with *each other* — but a refactor
//! that changed every driver identically would still pass. The golden
//! corpus closes that hole: for one fixed dataset, workload and seed, the
//! exact per-request `(access, tuning, outcome)` triple of every scheme
//! is frozen into `tests/golden/*.tsv`, and the conformance test diffs
//! live runs against the checked-in bytes.
//!
//! The corpus is produced by `cargo run -p bda-bench --bin gen_golden`,
//! which overwrites `tests/golden/` from the same [`corpus`] function the
//! test replays — regenerate (and review the diff!) only when an
//! intentional protocol change moves the numbers.

use std::fmt::Write as _;

use bda_core::{
    BurstModel, ChannelModel, ErrorModel, Key, OutageSchedule, Params, RetryPolicy, Ticks,
};
use bda_datagen::{DatasetBuilder, Popularity, QueryWorkload};
use bda_sim::{CompletedRequest, Engine};

use crate::SchemeKind;

/// Dataset size of the pinned corpus (small enough that the files stay
/// reviewable, large enough that every scheme's index has real depth).
const RECORDS: usize = 64;
/// Dataset/workload seed of the pinned corpus.
const SEED: u64 = 0x601D;
/// Requests per scheme per variant.
const REQUESTS: usize = 64;
/// Loss probability of the corpus's error-prone variant.
const LOSS: f64 = 0.15;
/// Stratification depth of the broadcast-disk corpus files.
const DISK_DISKS: usize = 3;
/// Zipf skew of the broadcast-disk corpus workload.
const DISK_THETA: f64 = 0.8;
/// The two schemes pinned in their stratified form: one interleaved scan
/// layout and one chunked-navigation wrapper.
const DISK_KINDS: [SchemeKind; 2] = [SchemeKind::Flat, SchemeKind::Hashing];

/// The two schemes pinned under the bursty-channel variants: one pointer
/// chaser (whose index hops amplify burst damage) and one scan layout.
const BURST_KINDS: [SchemeKind; 2] = [SchemeKind::Distributed, SchemeKind::Signature];

/// The two schemes pinned in their striped multichannel form: one scan
/// layout and one hash layout.
const MULTI_KINDS: [SchemeKind; 2] = [SchemeKind::Flat, SchemeKind::Hashing];
/// Channel count of the multichannel corpus files.
const MC_CHANNELS: u32 = 4;
/// Tune-switch cost (ticks) of the multichannel corpus files.
const MC_SWITCH: Ticks = 256;

/// The two channel variants every scheme is pinned under.
fn variants() -> [(&'static str, ChannelModel, RetryPolicy); 2] {
    [
        ("lossless", ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            "lossy15",
            ErrorModel::new(LOSS, SEED ^ 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
    ]
}

/// The bursty-channel variants [`BURST_KINDS`] are additionally pinned
/// under: a Gilbert–Elliott chain (~17 % stationary loss), alone and with
/// 10 % scheduled outage windows, driven by the resynchronization policy
/// (exponential back-off, seeded jitter).
fn burst_variants() -> [(&'static str, ChannelModel, RetryPolicy); 2] {
    let burst = BurstModel::new(0.04, 0.20, 0.0, 0.9, SEED ^ 0xB57);
    let policy = RetryPolicy::bounded(24)
        .with_backoff_cap(8)
        .with_jitter(SEED ^ 0x117);
    [
        ("burst", ChannelModel::burst(burst), policy),
        (
            "burst_outage",
            ChannelModel::burst(burst).with_outages(OutageSchedule::new(3_000, 300, SEED ^ 0x0A7)),
            policy,
        ),
    ]
}

/// Scheme name → filesystem-safe stem (`(1,m)` → `_1_m_`).
fn file_stem(scheme: &str) -> String {
    scheme
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The corpus's fixed request mix: arrivals scattered over 16 cycles by a
/// Weyl sequence, every sixth key drawn from the absent pool.
fn requests(ds: &bda_core::Dataset, pool: &[Key], span: Ticks) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..REQUESTS)
        .map(|i| {
            let t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
            let key = if i % 6 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 37) % keys.len()]
            };
            (t % span.max(1), key)
        })
        .collect()
}

/// The broadcast-disk corpus's request mix: the same Weyl-sequence
/// arrivals, keys drawn from a Zipf(`DISK_THETA`) workload at 90 % data
/// availability so absent keys exercise the disk routing too.
fn disk_requests(ds: &bda_core::Dataset, pool: &[Key], span: Ticks) -> Vec<(Ticks, Key)> {
    let mut w = QueryWorkload::new(
        ds,
        pool.to_vec(),
        0.9,
        Popularity::Zipf(DISK_THETA),
        SEED ^ 0xD15C,
    );
    (0..REQUESTS)
        .map(|i| {
            let t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
            (t % span.max(1), w.next_key())
        })
        .collect()
}

/// Render one corpus file: header comments, column line, one row per
/// completed request.
fn render(scheme_line: &str, completed: &[CompletedRequest]) -> String {
    let mut tsv = String::new();
    let _ = writeln!(tsv, "# golden conformance corpus — {scheme_line}");
    let _ = writeln!(
        tsv,
        "# regenerate: cargo run -p bda-bench --bin gen_golden (review the diff!)"
    );
    tsv.push_str(
        "idx\tarrival\tkey\tfound\taccess\ttuning\tprobes\tfalse_drops\tretries\tabandoned\taborted\tstale_restarts\tversion_skews\n",
    );
    for (i, r) in completed.iter().enumerate() {
        let o = &r.outcome;
        let _ = writeln!(
            tsv,
            "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.arrival,
            r.key,
            u8::from(o.found),
            o.access,
            o.tuning,
            o.probes,
            o.false_drops,
            o.retries,
            u8::from(o.abandoned),
            u8::from(o.aborted),
            o.stale_restarts,
            o.version_skews,
        );
    }
    tsv
}

/// Generate the whole corpus: one `(file name, TSV contents)` pair per
/// scheme per channel variant, deterministically.
pub fn corpus() -> Vec<(String, String)> {
    let (ds, pool) = DatasetBuilder::new(RECORDS, SEED)
        .build_with_absent_pool(8)
        .expect("corpus dataset");
    let params = Params::paper();
    let mut files = Vec::new();
    for kind in SchemeKind::ALL {
        let system = kind.build(&ds, &params).expect("corpus scheme build");
        let reqs = requests(&ds, &pool, 16 * system.cycle_len());
        for (variant, channel, policy) in variants() {
            let completed = Engine::with_channel(system.as_ref(), channel, policy).run_batch(&reqs);
            let header = format!(
                "scheme={} variant={variant} records={RECORDS} seed={SEED:#x}",
                kind.name()
            );
            files.push((
                format!("{}_{variant}.tsv", file_stem(kind.name())),
                render(&header, &completed),
            ));
        }
    }
    // Broadcast-disk extension: two schemes pinned in their stratified form
    // under a skewed workload, so the disk constructor's occurrence
    // interleaving, index routing and repetition accounting are frozen
    // alongside the flat-cycle programs.
    for kind in DISK_KINDS {
        let system = kind
            .build_disks(&ds, &params, DISK_DISKS)
            .expect("disk-capable corpus kind")
            .expect("corpus disk build");
        let reqs = disk_requests(&ds, &pool, 8 * system.cycle_len());
        for (variant, channel, policy) in variants() {
            let completed = Engine::with_channel(system.as_ref(), channel, policy).run_batch(&reqs);
            let header = format!(
                "scheme={} disks={DISK_DISKS} theta={DISK_THETA} variant={variant} records={RECORDS} seed={SEED:#x}",
                kind.name()
            );
            files.push((
                format!(
                    "{}_disks{DISK_DISKS}_zipf08_{variant}.tsv",
                    file_stem(kind.name())
                ),
                render(&header, &completed),
            ));
        }
    }
    // Bursty-channel extension: the Gilbert–Elliott chain and the outage
    // schedule are pure functions of (bucket instant, seed), so these
    // files freeze the skip-ahead state resolution, the outage jitter
    // placement and the exponential-back-off resynchronization exactly.
    for kind in BURST_KINDS {
        let system = kind.build(&ds, &params).expect("corpus scheme build");
        let reqs = requests(&ds, &pool, 16 * system.cycle_len());
        for (variant, channel, policy) in burst_variants() {
            let completed = Engine::with_channel(system.as_ref(), channel, policy).run_batch(&reqs);
            let header = format!(
                "scheme={} variant={variant} records={RECORDS} seed={SEED:#x}",
                kind.name()
            );
            files.push((
                format!("{}_{variant}.tsv", file_stem(kind.name())),
                render(&header, &completed),
            ));
        }
    }
    // Multichannel extension: two schemes pinned striped over four
    // channels at equal aggregate bandwidth, so the routing directory,
    // the per-channel fault-seed remix and the tune-switch accounting
    // are frozen alongside the single-channel programs.
    for kind in MULTI_KINDS {
        let config = bda_core::GroupConfig::new(MC_CHANNELS, MC_SWITCH).expect("corpus group");
        let system = kind
            .build_multichannel(&ds, &params, config, None)
            .expect("corpus multichannel build");
        let reqs = requests(&ds, &pool, 16 * system.cycle_len());
        for (variant, channel, policy) in variants() {
            let completed = Engine::with_channel(system.as_ref(), channel, policy).run_batch(&reqs);
            let header = format!(
                "scheme={} channels={MC_CHANNELS} switch_cost={MC_SWITCH} variant={variant} records={RECORDS} seed={SEED:#x}",
                kind.name()
            );
            files.push((
                format!("{}_mc{MC_CHANNELS}_{variant}.tsv", file_stem(kind.name())),
                render(&header, &completed),
            ));
        }
    }
    files
}

/// The checked-in corpus directory, resolved from this crate's manifest
/// (`tests/golden/` at the repo root).
pub fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/golden")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_complete() {
        let a = corpus();
        let b = corpus();
        assert_eq!(a, b, "two generations must be byte-identical");
        // 8 schemes × 2 variants, plus 2 broadcast-disk schemes × 2,
        // plus 2 bursty-channel schemes × 2, plus 2 multichannel × 2.
        assert_eq!(
            a.len(),
            (SchemeKind::ALL.len() + DISK_KINDS.len() + BURST_KINDS.len() + MULTI_KINDS.len()) * 2
        );
        for (name, tsv) in &a {
            assert!(name.ends_with(".tsv"));
            // Header comments + column line + one row per request.
            assert_eq!(tsv.lines().count(), 3 + REQUESTS, "{name}");
            assert!(!tsv.contains("\taborted=1"), "{name}");
        }
    }

    /// `K = 1` identity over the frozen corpus: wrapping every scheme in
    /// a one-channel group (non-zero switch cost included — a lone home
    /// channel never retunes) and replaying the exact corpus requests
    /// must reproduce the single-channel TSVs byte for byte — the
    /// lossless and lossy files for all eight schemes, and the bursty
    /// files for the burst-pinned kinds. This pins the acceptance claim
    /// that a one-channel group is the single-channel program, not
    /// merely close to it.
    #[test]
    fn k1_groups_replay_the_single_channel_corpus_bit_identically() {
        let by_name: std::collections::BTreeMap<String, String> = corpus().into_iter().collect();
        let (ds, pool) = DatasetBuilder::new(RECORDS, SEED)
            .build_with_absent_pool(8)
            .expect("corpus dataset");
        let params = Params::paper();
        let config = bda_core::GroupConfig::new(1, MC_SWITCH).expect("K=1 group");
        let mut checked = 0usize;
        for kind in SchemeKind::ALL {
            let system = kind
                .build_multichannel(&ds, &params, config, None)
                .expect("K=1 multichannel build");
            let reqs = requests(&ds, &pool, 16 * system.cycle_len());
            for (variant, channel, policy) in variants() {
                let completed =
                    Engine::with_channel(system.as_ref(), channel, policy).run_batch(&reqs);
                let header = format!(
                    "scheme={} variant={variant} records={RECORDS} seed={SEED:#x}",
                    kind.name()
                );
                let name = format!("{}_{variant}.tsv", file_stem(kind.name()));
                assert_eq!(
                    &render(&header, &completed),
                    &by_name[&name],
                    "{name}: K=1 group diverged from the single-channel program"
                );
                checked += 1;
            }
        }
        for kind in BURST_KINDS {
            let system = kind
                .build_multichannel(&ds, &params, config, None)
                .expect("K=1 multichannel build");
            let reqs = requests(&ds, &pool, 16 * system.cycle_len());
            for (variant, channel, policy) in burst_variants() {
                let completed =
                    Engine::with_channel(system.as_ref(), channel, policy).run_batch(&reqs);
                let header = format!(
                    "scheme={} variant={variant} records={RECORDS} seed={SEED:#x}",
                    kind.name()
                );
                let name = format!("{}_{variant}.tsv", file_stem(kind.name()));
                assert_eq!(
                    &render(&header, &completed),
                    &by_name[&name],
                    "{name}: K=1 group diverged from the single-channel program"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, (SchemeKind::ALL.len() + BURST_KINDS.len()) * 2);
    }

    #[test]
    fn lossy_variant_actually_differs() {
        let files = corpus();
        for pair in files.chunks(2) {
            let (clean, lossy) = (&pair[0], &pair[1]);
            assert_ne!(
                clean.1, lossy.1,
                "15% loss must perturb at least one request ({} vs {})",
                clean.0, lossy.0
            );
        }
    }
}
