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
    BurstModel, ChannelModel, Dataset, DiskConfig, ErrorModel, GroupConfig, Key, OutageSchedule,
    Params, RetryPolicy, Ticks,
};
use bda_datagen::{DatasetBuilder, Popularity, QueryWorkload};
use bda_sim::{CompletedRequest, Engine, Layout, SchemeKind};

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
/// The kind pinned as the cross-channel indexed group (its data channels
/// carry flat records).
const INDEXED_KINDS: [SchemeKind; 1] = [SchemeKind::Flat];

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
fn requests(ds: &Dataset, pool: &[Key], span: Ticks) -> Vec<(Ticks, Key)> {
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
fn disk_requests(ds: &Dataset, pool: &[Key], span: Ticks) -> Vec<(Ticks, Key)> {
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

/// A corpus request mix: `(arrival, key)` pairs spread over a span of air.
type RequestMix = fn(&Dataset, &[Key], Ticks) -> Vec<(Ticks, Key)>;

/// One family of corpus files: which kinds, on which layout, under which
/// channel variants and request mix, and how its files are labelled.
struct Family {
    kinds: &'static [SchemeKind],
    layout: Layout,
    variants: [(&'static str, ChannelModel, RetryPolicy); 2],
    /// The request mix, spread over `cycles` of the built program.
    requests: RequestMix,
    cycles: u64,
    /// Header fields between the scheme and the variant.
    header: String,
    /// File-name part between the scheme stem and the variant.
    infix: String,
}

/// The corpus families, in file order: every scheme on the flat cycle;
/// two stratified under a skewed workload, so the disk constructor's
/// occurrence interleaving, index routing and repetition accounting are
/// frozen; two under the bursty channels, freezing the Gilbert–Elliott
/// skip-ahead, the outage jitter placement and the back-off
/// resynchronization; two striped over four channels, freezing the
/// routing directory, the per-channel fault-seed remix and the
/// tune-switch accounting; and the indexed group over four channels,
/// freezing its root → directory → data protocol and its mid-walk retune.
fn families() -> [Family; 5] {
    let group = GroupConfig::new(MC_CHANNELS, MC_SWITCH).expect("corpus group");
    [
        Family {
            kinds: &SchemeKind::ALL,
            layout: Layout::Single,
            variants: variants(),
            requests,
            cycles: 16,
            header: String::new(),
            infix: String::new(),
        },
        Family {
            kinds: &DISK_KINDS,
            layout: Layout::Disks(DiskConfig::new(DISK_DISKS)),
            variants: variants(),
            requests: disk_requests,
            cycles: 8,
            header: format!(" disks={DISK_DISKS} theta={DISK_THETA}"),
            infix: format!("_disks{DISK_DISKS}_zipf08"),
        },
        Family {
            kinds: &BURST_KINDS,
            layout: Layout::Single,
            variants: burst_variants(),
            requests,
            cycles: 16,
            header: String::new(),
            infix: String::new(),
        },
        Family {
            kinds: &MULTI_KINDS,
            layout: Layout::Striped {
                group,
                partition: None,
            },
            variants: variants(),
            requests,
            cycles: 16,
            header: format!(" channels={MC_CHANNELS} switch_cost={MC_SWITCH}"),
            infix: format!("_mc{MC_CHANNELS}"),
        },
        Family {
            kinds: &INDEXED_KINDS,
            layout: Layout::Indexed {
                group,
                placement: None,
            },
            variants: variants(),
            requests,
            cycles: 16,
            header: format!(" layout=indexed channels={MC_CHANNELS} switch_cost={MC_SWITCH}"),
            infix: format!("_idx{MC_CHANNELS}"),
        },
    ]
}

/// Render one family's files with its programs built on `layout`.
fn family_files(family: &Family, layout: &Layout) -> Vec<(String, String)> {
    let (ds, pool) = DatasetBuilder::new(RECORDS, SEED)
        .build_with_absent_pool(8)
        .expect("corpus dataset");
    let params = Params::paper();
    let mut files = Vec::new();
    for kind in family.kinds {
        let system = kind
            .build_on(&ds, &params, layout, None)
            .expect("corpus kind has the family's layout")
            .expect("corpus scheme build");
        let reqs = (family.requests)(&ds, &pool, family.cycles * system.cycle_len());
        for (variant, channel, policy) in family.variants {
            let completed = Engine::with_channel(system.as_ref(), channel, policy).run_batch(&reqs);
            let header = format!(
                "scheme={}{} variant={variant} records={RECORDS} seed={SEED:#x}",
                kind.name(),
                family.header
            );
            files.push((
                format!("{}{}_{variant}.tsv", file_stem(kind.name()), family.infix),
                render(&header, &completed),
            ));
        }
    }
    files
}

/// Generate the whole corpus: one `(file name, TSV contents)` pair per
/// scheme per channel variant, deterministically.
pub fn corpus() -> Vec<(String, String)> {
    families()
        .iter()
        .flat_map(|family| family_files(family, &family.layout))
        .collect()
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
        // plus 2 bursty-channel schemes × 2, plus 2 multichannel × 2,
        // plus the indexed group × 2.
        assert_eq!(
            a.len(),
            (SchemeKind::ALL.len()
                + DISK_KINDS.len()
                + BURST_KINDS.len()
                + MULTI_KINDS.len()
                + INDEXED_KINDS.len())
                * 2
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
        let k1 = Layout::Striped {
            group: GroupConfig::new(1, MC_SWITCH).expect("K=1 group"),
            partition: None,
        };
        let mut checked = 0usize;
        for family in families().iter().filter(|f| f.layout == Layout::Single) {
            for (name, tsv) in family_files(family, &k1) {
                assert_eq!(
                    &tsv, &by_name[&name],
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
