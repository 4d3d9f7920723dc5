//! Extension experiment: **broadcast disks** — stratified repetition
//! schedules under skewed demand (Acharya et al., SIGMOD 1995, composed
//! with the paper's air-indexing schemes).
//!
//! Records are ranked by popularity and assigned to `D` concentric
//! "disks" with relative spin speeds; hot records repeat every minor
//! cycle, cold ones once per major cycle. The sweep crosses the workload
//! skew θ ∈ {0, 0.4, 0.8, 1.2} with the stratification depth
//! D ∈ {1, 2, 3} for the two scan-layout schemes (flat, signature) and
//! reports measured mean access/tuning time per cell, plus the
//! repetition-schedule closed form (`bda_analytical::flat_disks`) beside
//! the flat measurements — the Fig-4-style "(S) vs (A)" overlay for
//! stratified programs.
//!
//! The experiment asserts its own headline: at θ = 1.2 every stratified
//! program (D > 1) must measure a strictly better mean access time than
//! its D = 1 flat cycle, and at θ = 0 stratification must *not* win
//! (repetition lengthens the cycle without favoring anyone). D = 1 is
//! bit-identical to the unstratified broadcast, so that column doubles as
//! the baseline.

use bda_core::{DiskConfig, DiskLayout, DynSystem, Params, Ticks};
use bda_datagen::{zipf_weights, DatasetBuilder, Popularity, Prng, QueryWorkload};

use bda_sim::Layout;

use crate::experiments::Outcome;
use crate::table::{write_csvs, Table};
use crate::{Cli, SchemeKind};

/// Workload skews swept.
pub const THETAS: [f64; 4] = [0.0, 0.4, 0.8, 1.2];
/// Stratification depths swept.
pub const DISKS: [usize; 3] = [1, 2, 3];
/// The schemes the table sweeps (both interleaved scan layouts).
const SCHEMES: [SchemeKind; 2] = [SchemeKind::Flat, SchemeKind::Signature];

/// Measured mean access/tuning time for one (scheme, θ, D) cell: keys
/// drawn Zipf(θ), tune-ins uniform over eight major cycles.
fn run_cell(
    sys: &dyn DynSystem,
    ds: &bda_core::Dataset,
    theta: f64,
    queries: usize,
    seed: u64,
) -> (f64, f64) {
    let mut workload = QueryWorkload::new(ds, Vec::new(), 1.0, Popularity::Zipf(theta), seed);
    let mut rng = Prng::new(seed ^ 0xA11);
    let span: Ticks = sys.cycle_len() * 8;
    let mut at = 0f64;
    let mut tt = 0f64;
    for _ in 0..queries {
        let out = sys.probe(workload.next_key(), rng.below(span));
        assert!(out.found, "{} lost a broadcast key", sys.scheme_name());
        at += out.access as f64;
        tt += out.tuning as f64;
    }
    (at / queries as f64, tt / queries as f64)
}

/// Run the broadcast-disk skew sweep.
pub fn run(cli: &Cli) -> Outcome {
    let params = Params::paper();
    let nr = if cli.quick { 600 } else { 2_000 };
    let queries = if cli.quick { 1_500 } else { 6_000 };
    let dataset = DatasetBuilder::new(nr, cli.seed).build().unwrap();
    let progress = cli.progress();

    let headers: Vec<String> = std::iter::once("θ".to_string())
        .chain(SCHEMES.iter().flat_map(|s| {
            DISKS
                .iter()
                .flat_map(move |d| {
                    [
                        format!("{} D{d} At", s.name()),
                        format!("{} D{d} Tt", s.name()),
                    ]
                })
                .chain(std::iter::once(format!("{} D3 At(A)", s.name())))
        }))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&headers_ref);

    for &theta in &THETAS {
        let weights = zipf_weights(nr, theta);
        let mut row = vec![format!("{theta}")];
        for &kind in &SCHEMES {
            let mut flat_at = f64::NAN;
            for &d in &DISKS {
                let sys = kind
                    .build_on(&dataset, &params, &Layout::Disks(DiskConfig::new(d)), None)
                    .expect("scan layouts are disk-capable")
                    .unwrap();
                let seed = cli.seed ^ (theta.to_bits().rotate_left(7)) ^ (d as u64) << 17;
                let (at, tt) = run_cell(sys.as_ref(), &dataset, theta, queries, seed);
                progress.emit(
                    bda_obs::Severity::Progress,
                    &format!("ext_disks: {} θ={theta} D={d} At={at:.0}", kind.name()),
                );
                if d == 1 {
                    flat_at = at;
                } else if (theta - 1.2).abs() < 1e-9 {
                    assert!(
                        at < flat_at,
                        "{} θ=1.2 D={d}: stratified At {at:.0} must beat flat {flat_at:.0}",
                        kind.name()
                    );
                } else if theta == 0.0 {
                    assert!(
                        at > flat_at,
                        "{} θ=0 D={d}: repetition cannot win under uniform demand \
                         ({at:.0} vs {flat_at:.0})",
                        kind.name()
                    );
                }
                row.push(format!("{at:.0}"));
                row.push(format!("{tt:.0}"));
            }
            // Closed-form D=3 access time beside the measurements.
            let layout = DiskLayout::new(nr, &DiskConfig::new(3));
            let model = match kind {
                SchemeKind::Flat => {
                    bda_analytical::flat_disks(&params, layout.schedule(), &weights).access
                }
                _ => {
                    bda_analytical::signature_disks(
                        &params,
                        bda_signature::SigParams::default().sig_bytes,
                        layout.schedule(),
                        &weights,
                    )
                    .access
                }
            };
            row.push(format!("{model:.0}"));
        }
        t.row(row);
    }

    println!(
        "# Extension — broadcast disks: skew θ × stratification D (Nr = {nr}, {queries} queries/cell)\n"
    );
    print!("{}", t.render());
    write_csvs(cli.progress(), &[(&t, "ext_disks")])?;
    Ok(())
}
