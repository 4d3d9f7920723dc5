//! Chaos soak harness: randomized bursty-channel fault grids against
//! every execution driver, asserting bit-identical agreement per cell.
//!
//! Each cell draws a random scheme, dataset size, channel (i.i.d. or
//! Gilbert–Elliott burst loss, with or without scheduled outage windows),
//! retry policy (bounded, capped exponential or fixed back-off, seeded
//! jitter, a give-up deadline), optional program churn, a multichannel
//! striping group (2–4 channels, randomized tune-switch cost) on roughly a
//! third of the cells, and on a share of the single-channel cells of a
//! disk-capable scheme, frozen or churning, a broadcast-disk program (2 or
//! 3 disks). About one cell in seven is instead a frozen cross-channel
//! indexed group of flat records (2–4 channels, randomized switch cost).
//! Every cell is a [`Cell`] of the conformance matrix, built through the
//! scheme registry ([`SchemeKind::build_on`]), and runs through the
//! matrix's wall ([`Cell::run`]): the direct walker, the slab engine
//! (fast-forward on, off, and a second batch), the reference oracle and
//! the sharded engine at 1, 2, 3 and 7 shards, each with the noop, span
//! and windowed recorders, so the soak and the matrix cannot drift apart.
//!
//! Corruption is a pure function of (bucket instant, seed), so every
//! driver must agree outcome-for-outcome; any divergence or broken
//! invariant prints a copy-pasteable reproducer (`chaos --cell <seed>`
//! plus the fully decoded channel/outage/policy/churn/group
//! configuration) and, for a divergence, per-window context — both
//! drivers' completions folded into windowed time series (one window per
//! broadcast cycle), with the first window whose outcome counters
//! disagree shown side by side — and exits non-zero. A random cell may
//! corrupt nothing; the grid as a whole must. `--quick` runs a small grid
//! for CI smoke; the default soak is ~8× larger.
//!
//! Flags: `--quick`, `--seed N`, `--cells N`, `--cell SEED`, `--quiet`.

use bda_bench::conformance::{Arrivals, Cell, SplitMix64};
use bda_bench::SchemeKind;
use bda_core::{
    BurstModel, ChannelModel, DiskConfig, ErrorModel, GroupConfig, OutageSchedule, RetryPolicy,
    Ticks,
};
use bda_sim::Layout;

/// Everything needed to rerun `cell` by hand: a copy-pasteable invocation
/// (the cell is a pure function of its seed) followed by the fully
/// decoded configuration.
fn reproducer(cell: &Cell) -> String {
    format!(
        "cargo run -p bda-bench --bin chaos -- --cell 0x{:X}\n{}",
        cell.seed,
        cell.describe()
    )
}

/// Draw one cell from the parameter stream.
fn draw_cell(seed: u64) -> Cell {
    let mut rng = SplitMix64(seed);
    let kind = SchemeKind::ALL[rng.below(SchemeKind::ALL.len() as u64) as usize];
    let records = 32 + rng.below(64) as usize;
    let requests = 32 + rng.below(48) as usize;

    // Loss process: i.i.d. ~25%, burst ~75% (the point of the soak).
    let loss = if rng.chance(0.25) {
        ChannelModel::iid(ErrorModel::new(0.02 + 0.28 * rng.unit(), rng.next_u64()))
    } else {
        ChannelModel::burst(BurstModel::new(
            0.01 + 0.2 * rng.unit(), // good→bad
            0.05 + 0.5 * rng.unit(), // bad→good
            0.05 * rng.unit(),       // loss in good state
            0.5 + 0.5 * rng.unit(),  // loss in bad state
            rng.next_u64(),
        ))
    };
    // Outage windows on roughly half the cells, 2–15% of air time.
    let channel = if rng.chance(0.5) {
        let len = 100 + rng.below(400);
        let rate = 0.02 + 0.13 * rng.unit();
        let every = ((len as f64 / rate) as Ticks).max(len);
        loss.with_outages(OutageSchedule::new(every, len, rng.next_u64()))
    } else {
        loss
    };

    // Retry policy: always bounded enough that dead air cannot spin a
    // cell forever, with the resynchronization knobs mixed in: capped
    // exponential or fixed uncapped back-off, jitter, and a give-up
    // deadline of a fraction of a cycle to a few cycles.
    let mut policy = RetryPolicy::bounded(8 + rng.below(40) as u32);
    if rng.chance(0.7) {
        policy = policy.with_backoff_cap(1 << rng.below(5));
    } else if rng.chance(0.5) {
        policy = policy.with_backoff(1 + rng.below(3) as u32);
    }
    if rng.chance(0.6) {
        policy = policy.with_jitter(rng.next_u64());
    }
    if rng.chance(0.3) {
        policy = policy.with_deadline(4_000 + rng.below(100_000));
    }
    let churn_pct = if rng.chance(0.4) {
        5 + rng.below(21) as u32
    } else {
        0
    };
    // Stripe roughly a third of the cells over a channel group, so the
    // soak also differentiates the cross-channel routing, the per-channel
    // fault-seed remix and the tune-switch accounting.
    let group = if rng.chance(0.35) {
        let channels = 2 + rng.below(3) as u32;
        Some(GroupConfig::new(channels, rng.below(600)).expect("2..=4 channels is valid"))
    } else {
        None
    };
    // Stratify half the single-channel cells of a disk-capable scheme,
    // frozen or churning, over 2 or 3 broadcast disks, so the soak also
    // runs disk programs under burst loss, outages and churn.
    let layout = match group {
        Some(group) => Layout::Striped {
            group,
            partition: None,
        },
        None if kind.has_disks() && rng.chance(0.5) => {
            Layout::Disks(DiskConfig::new(2 + rng.below(2) as usize))
        }
        None => Layout::Single,
    };
    let mut cell = Cell {
        seed,
        kind,
        records,
        requests,
        arrivals: Arrivals::Within(12_000),
        channel,
        policy,
        churn_pct,
        layout,
    };
    // Turn about one cell in seven into a frozen indexed group of flat
    // records, keeping its air, policy and sizes. This draw comes last, so
    // every other cell draws exactly the parameters it drew before.
    if rng.chance(0.15) {
        let channels = 2 + rng.below(3) as u32;
        let group = GroupConfig::new(channels, rng.below(600)).expect("2..=4 channels is valid");
        cell.kind = SchemeKind::Flat;
        cell.churn_pct = 0;
        cell.layout = Layout::Indexed {
            group,
            placement: None,
        };
    }
    cell
}

/// The cell seeds of the grid drawn from run seed `seed`: the outputs of
/// the harness's SplitMix64 stream seeded with it, so grids at
/// neighbouring run seeds share no cell.
fn cell_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = SplitMix64(seed);
    std::iter::repeat_with(move || rng.next_u64())
}

/// Parse an integer that may carry a `0x` prefix (cell seeds are printed
/// in hex by the reproducer).
fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() {
    let mut quick = false;
    let mut quiet = false;
    let mut seed = 0xC4A0_5000u64;
    let mut cells: Option<usize> = None;
    let mut one_cell: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--quiet" => quiet = true,
            "--seed" => {
                seed = args
                    .next()
                    .as_deref()
                    .and_then(parse_u64)
                    .unwrap_or_else(|| {
                        eprintln!("--seed requires an integer");
                        std::process::exit(2);
                    });
            }
            "--cells" => {
                cells = Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--cells requires an integer");
                    std::process::exit(2);
                }));
            }
            "--cell" => {
                one_cell = Some(
                    args.next()
                        .as_deref()
                        .and_then(parse_u64)
                        .unwrap_or_else(|| {
                            eprintln!("--cell requires a cell seed (decimal or 0x-hex)");
                            std::process::exit(2);
                        }),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "chaos — randomized burst/outage/churn differential soak\n\
                     flags: --quick    small CI grid (16 cells)\n       \
                     --cells N  explicit cell count\n       \
                     --seed N   grid seed\n       \
                     --cell S   rerun exactly one cell from its printed seed\n       \
                     --quiet    no per-cell narration"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    // `--cell` replays one cell from a reproducer line, alone: decode it,
    // narrate the full configuration, and exit with the cell's verdict.
    if let Some(cell_seed) = one_cell {
        let cell = draw_cell(cell_seed);
        eprintln!("{}", reproducer(&cell));
        match cell.run() {
            Ok(stats) => {
                println!(
                    "cell 0x{cell_seed:X} ok: all drivers agreed; {} retries, {} abandoned, {} stale restarts",
                    stats.retries, stats.abandoned, stats.stale_restarts
                );
                return;
            }
            Err(why) => {
                eprintln!("DIVERGENCE: {why}");
                std::process::exit(1);
            }
        }
    }
    let n = cells.unwrap_or(if quick { 16 } else { 128 });
    let mut totals = bda_bench::conformance::CellStats::default();
    let mut burst_cells = 0usize;
    let mut outage_cells = 0usize;
    let mut churn_cells = 0usize;
    let mut multi_cells = 0usize;
    let mut indexed_cells = 0usize;
    let mut disk_cells = 0usize;
    let mut churning_disk_cells = 0usize;
    let mut fixed_backoff_cells = 0usize;
    let mut deadline_cells = 0usize;
    for (i, cell_seed) in cell_seeds(seed).take(n).enumerate() {
        let cell = draw_cell(cell_seed);
        if !matches!(cell.channel.loss, bda_core::LossModel::Iid(_)) {
            burst_cells += 1;
        }
        if cell.channel.has_outages() {
            outage_cells += 1;
        }
        if cell.churn_pct > 0 {
            churn_cells += 1;
        }
        match cell.layout {
            Layout::Single => {}
            Layout::Disks(_) => {
                disk_cells += 1;
                churning_disk_cells += usize::from(cell.churn_pct > 0);
            }
            Layout::Striped { .. } => multi_cells += 1,
            Layout::Indexed { .. } => indexed_cells += 1,
        }
        if cell.policy.backoff_cycles > 0 && cell.policy.backoff_cap_cycles == 0 {
            fixed_backoff_cells += 1;
        }
        if cell.policy.give_up_after.is_some() {
            deadline_cells += 1;
        }
        match cell.run() {
            Ok(stats) => {
                if !quiet {
                    eprintln!(
                        "cell {:>3}/{n} ok: {} records={} requests={} retries={} abandoned={} stale={}",
                        i + 1,
                        cell.kind.name(),
                        cell.records,
                        cell.requests,
                        stats.retries,
                        stats.abandoned,
                        stats.stale_restarts,
                    );
                }
                totals.retries += stats.retries;
                totals.abandoned += stats.abandoned;
                totals.stale_restarts += stats.stale_restarts;
            }
            Err(why) => {
                eprintln!("DIVERGENCE: {why}");
                eprintln!("reproduce with:\n{}", reproducer(&cell));
                std::process::exit(1);
            }
        }
    }
    // The soak must actually exercise the fault machinery — a grid that
    // never corrupts a read proves nothing.
    if totals.retries == 0 {
        eprintln!("grid produced zero corrupted reads — parameters degenerate");
        std::process::exit(1);
    }
    println!(
        "chaos ok: {n} cells ({burst_cells} burst, {outage_cells} outage, {churn_cells} churn, \
         {multi_cells} multichannel, {indexed_cells} indexed, \
         {disk_cells} disks ({churning_disk_cells} churning), \
         {fixed_backoff_cells} fixed back-off, \
         {deadline_cells} deadline) agreed across all drivers; {} retries, {} abandoned, {} \
         stale restarts",
        totals.retries, totals.abandoned, totals.stale_restarts
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::LossModel;

    #[test]
    fn reproducer_decodes_the_full_cell_config() {
        // Scan seeds until the draw covers every decoded section at least
        // once: burst loss, outage schedule, churn, a channel group,
        // broadcast disks, a churning disk program and an indexed group.
        let mut saw = (false, false, false, false, false, false, false);
        for s in 0..256u64 {
            let cell = draw_cell(s);
            let repro = reproducer(&cell);
            assert!(
                repro.starts_with(&format!(
                    "cargo run -p bda-bench --bin chaos -- --cell 0x{s:X}\n"
                )),
                "{repro}"
            );
            assert!(repro.contains("loss="), "{repro}");
            assert!(
                repro.contains("outages every=") || repro.contains("outages=none"),
                "{repro}"
            );
            assert!(repro.contains("policy retries="), "{repro}");
            assert!(repro.contains("channels="), "{repro}");
            match &cell.channel.loss {
                LossModel::Iid(_) => assert!(repro.contains("loss=iid p="), "{repro}"),
                LossModel::Burst(b) => {
                    saw.0 = true;
                    assert!(
                        repro.contains(&format!("loss_bad={:.6}", b.loss_bad)),
                        "{repro}"
                    );
                }
            }
            if cell.channel.has_outages() {
                saw.1 = true;
                assert!(
                    repro.contains(&format!("len={}", cell.channel.outages.len)),
                    "{repro}"
                );
            }
            if cell.churn_pct > 0 {
                saw.2 = true;
                assert!(
                    repro.contains(&format!("churn={}%", cell.churn_pct)),
                    "{repro}"
                );
            }
            match &cell.layout {
                Layout::Single => assert!(repro.contains("disks=1"), "{repro}"),
                Layout::Disks(d) => {
                    saw.4 = true;
                    saw.5 |= cell.churn_pct > 0;
                    assert!(cell.kind.has_disks());
                    assert!(repro.contains(&format!("disks={}\n", d.disks())), "{repro}");
                }
                Layout::Striped { .. } => assert!(repro.contains("disks=1"), "{repro}"),
                Layout::Indexed { group: g, .. } => {
                    saw.6 = true;
                    assert_eq!((cell.kind, cell.churn_pct), (SchemeKind::Flat, 0));
                    assert!(
                        repro.contains(&format!(
                            "channels={} switch_cost={} layout=indexed",
                            g.channels, g.switch_cost
                        )),
                        "{repro}"
                    );
                }
            }
            if let Layout::Striped { group: g, .. } = cell.layout {
                saw.3 = true;
                assert!(
                    repro.contains(&format!(
                        "channels={} switch_cost={}",
                        g.channels, g.switch_cost
                    )),
                    "{repro}"
                );
            }
        }
        assert_eq!(
            saw,
            (true, true, true, true, true, true, true),
            "256 seeds must cover burst, outage, churn, multichannel, disk, churning disk \
             and indexed cells"
        );
    }

    #[test]
    fn grids_at_neighbouring_seeds_share_no_cell() {
        let grid =
            |seed| -> std::collections::HashSet<u64> { cell_seeds(seed).take(128).collect() };
        let (one, two) = (grid(1), grid(2));
        assert_eq!((one.len(), two.len()), (128, 128));
        assert!(one.is_disjoint(&two));
    }

    #[test]
    fn cell_seed_parses_in_both_radixes() {
        assert_eq!(parse_u64("0x1F"), Some(31));
        assert_eq!(parse_u64("0X1f"), Some(31));
        assert_eq!(parse_u64("31"), Some(31));
        assert_eq!(parse_u64("zzz"), None);
    }
}
