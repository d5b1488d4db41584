//! `month_lstm` / `month_gru`: the paper's monthly protocol through
//! `run_pipeline`, timed from outside by the checkpoint generations it
//! writes, plus (traced) a serial replay of the same steps from public
//! calls with a timer around each layer.

use crate::report::{self, least_disturbed, max, median, ratio, secs, Digest, Metric, Outcome};
use crate::{Args, Inject, Size};
use nfv_detect::eval;
use nfv_detect::mapping::{map_clusters, warning_clusters};
use nfv_detect::pipeline::{ticket_free, CheckpointConfig, CrashPoint, PipelineError};
use nfv_detect::pipeline_ckpt::{generation_path, list_generations};
use nfv_detect::{
    AnomalyDetector, DetectorKind, GroupModelStore, Grouping, GruDetector, LogCodec, LstmDetector,
    PipelineConfig, PipelineRun, ScoredEvent,
};
use nfv_simnet::{FleetTrace, SimConfig, SimPreset, Ticket};
use nfv_syslog::time::{month_start, DAY};
use nfv_syslog::LogStream;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Lstm,
    Gru,
}

/// Bring-ups per run that stop at the generation-0 checkpoint, on top of
/// the one inside each full run; `setup_s` is the lower quartile of all
/// of them.
const SETUP_ONLY_RUNS: usize = 1;
/// Checkpoint scratch space, relative to the checkout root the benchmark
/// runs from; each run removes its own subdirectory.
const WORK_DIR: &str = ".bench_tmp";
/// Complete pipeline runs per benchmark run, at least; more follow while
/// the measuring time lasts.
const MIN_FULL_RUNS: usize = 2;

/// The simulated fleet: the fast preset stretched to six months with a
/// software update at month 3 (the month adaptation must answer).
fn sim_config(seed: u64, size: Size) -> SimConfig {
    let mut sim = SimConfig::preset(SimPreset::Fast, seed);
    match size {
        Size::Full => {
            sim.months = 6;
            sim.update_month = Some(3);
        }
        Size::Small => {
            sim.n_vpes = 4;
            sim.months = 5;
            sim.update_month = Some(3);
        }
    }
    // The update reaches every vPE of a fleet with two behaviour groups.
    // With the preset's 60% of vPEs, or its four groups, the one model's
    // false-alarm rate did not surge on some seeds (3 of 18, and seeds 5
    // and 7 of 0-10), so no adaptation fired.
    sim.update_fraction = 1.0;
    sim.n_groups = 2;
    sim
}

/// The paper's detector shape (window 10, hidden 32, two layers) with
/// the fast-preset training budget of `nfvpredict evaluate`, pinned to
/// one thread.
fn pipeline_config(family: Family, size: Size, months: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig {
        detector: match family {
            Family::Lstm => DetectorKind::Lstm,
            Family::Gru => DetectorKind::Gru,
        },
        // One model for the fleet. With per-group models the grouping
        // found 2 to 5 groups and 0 to 3 groups adapted, depending on
        // the seed, which moved every month timing by 25-40% between
        // seeds; with one model exactly one adaptation fires, at the
        // update month, on every seed tried.
        customize: false,
        threads: 1,
        ..PipelineConfig::default()
    };
    let (epochs, windows) = match size {
        Size::Full => (2, 10_000),
        Size::Small => (2, 4_000),
    };
    cfg.lstm.epochs = epochs;
    cfg.lstm.max_train_windows = windows;
    cfg.lstm.threads = 1;
    cfg.gru.epochs = epochs;
    cfg.gru.max_train_windows = windows;
    cfg.gru.threads = 1;
    // Keep every generation: their timestamps are the month clock.
    cfg.checkpoint = CheckpointConfig { keep: months + 1, ..CheckpointConfig::default() };
    cfg
}

fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("benchmark work directory is writable");
    dir.to_path_buf()
}

/// Watches a checkpoint directory from a second thread and notes the
/// moment each generation file lands (files appear by atomic rename, so
/// a listed generation is complete).
struct GenerationWatch {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<BTreeMap<usize, Instant>>,
}

impl GenerationWatch {
    fn start(dir: &Path) -> GenerationWatch {
        let dir = dir.to_path_buf();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut landed = BTreeMap::new();
            loop {
                // Read the flag first so the final listing sees every
                // generation written before `finish` was called.
                let done = flag.load(Ordering::Acquire);
                for g in list_generations(&dir) {
                    landed.entry(g).or_insert_with(Instant::now);
                }
                if done {
                    return landed;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        GenerationWatch { stop, handle }
    }

    /// Landing times by generation.
    fn finish(self) -> BTreeMap<usize, Instant> {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("the generation watcher does not panic")
    }
}

/// Timings and results of one complete `run_pipeline`.
struct FullRun {
    run: PipelineRun,
    wall_s: f64,
    setup_s: f64,
    month_s: Vec<f64>,
    generations: usize,
    ckpt_bytes: Vec<f64>,
}

fn full_run(
    trace: &FleetTrace,
    cfg: &PipelineConfig,
    dir: &Path,
    inject: Inject,
) -> Result<FullRun, String> {
    let mut cfg = cfg.clone();
    cfg.checkpoint.dir = Some(fresh_dir(dir));
    let watch = GenerationWatch::start(dir);
    let t0 = Instant::now();
    let run = nfv_detect::run_pipeline(trace, &cfg);
    let wall_s = secs(t0.elapsed());
    let landed = watch.finish();
    let run = run.map_err(|e| e.to_string())?;
    if inject == Inject::Drop {
        let _ = std::fs::remove_file(generation_path(dir, 1));
    }
    let gens = list_generations(dir);
    let stamps: Vec<Instant> = gens.iter().filter_map(|g| landed.get(g).copied()).collect();
    let ckpt_bytes = gens
        .iter()
        .filter_map(|&g| std::fs::metadata(generation_path(dir, g)).ok())
        .map(|m| m.len() as f64)
        .collect();
    let setup_s = stamps.first().map_or(0.0, |&s| secs(s - t0));
    let month_s = stamps.windows(2).map(|w| secs(w[1] - w[0])).collect();
    Ok(FullRun { run, wall_s, setup_s, month_s, generations: gens.len(), ckpt_bytes })
}

/// One bring-up that stops right after the generation-0 checkpoint.
fn setup_only(trace: &FleetTrace, cfg: &PipelineConfig, dir: &Path) -> Result<f64, String> {
    let mut cfg = cfg.clone();
    cfg.checkpoint.dir = Some(fresh_dir(dir));
    cfg.checkpoint.crash = Some(CrashPoint::AfterMonth(0));
    let watch = GenerationWatch::start(dir);
    let t0 = Instant::now();
    let outcome = nfv_detect::run_pipeline(trace, &cfg);
    let landed = watch.finish();
    match outcome {
        Err(PipelineError::CrashInjected(_)) => {}
        Ok(_) => return Err("bring-up did not stop at generation 0".to_string()),
        Err(e) => return Err(e.to_string()),
    }
    landed.get(&0).map(|&s| secs(s - t0)).ok_or_else(|| "generation 0 was not written".to_string())
}

fn run_digest(run: &PipelineRun) -> u64 {
    let mut d = Digest::new();
    for m in &run.months {
        d.u64(m.month as u64);
        for (vpe, events) in m.per_vpe.iter().enumerate() {
            d.u64(vpe as u64);
            for e in events {
                d.u64(e.time);
                d.u64(e.score.to_bits() as u64);
            }
        }
    }
    for &(m, g) in &run.adaptations {
        d.u64(m as u64);
        d.u64(g as u64);
    }
    d.finish()
}

/// Quality at the best-F operating point: `(best_f, false_alarms_per_day)`.
fn quality(run: &PipelineRun, cfg: &PipelineConfig) -> Option<(f64, f64)> {
    let best = eval::sweep_prc(run, &cfg.mapping, 40).best_f_point()?;
    let fa = eval::false_alarms_per_day(run, &cfg.mapping, best.threshold);
    Some((best.f_measure as f64, fa as f64))
}

/// Output checks shared by the untraced and traced runs.
fn check_run(full: &FullRun, months: usize, violations: &mut Vec<String>) -> u64 {
    let run = &full.run;
    let mut failed = 0u64;
    for e in &run.events {
        if let nfv_detect::PipelineEvent::CheckpointSkipped { month, .. } = e {
            violations.push(format!("checkpoint of month {} was skipped", month));
            failed += 1;
        }
    }
    if full.generations != months {
        violations.push(format!(
            "{} checkpoint generations for {} months (one per month expected)",
            full.generations, months
        ));
        failed += months.saturating_sub(full.generations) as u64;
    }
    if run.months.len() + 1 != months {
        violations.push(format!("{} months scored, expected {}", run.months.len(), months - 1));
    }
    if run.adaptations.is_empty() {
        violations.push("no adaptation fired after the software update".to_string());
    }
    let non_finite =
        run.months.iter().flat_map(|m| m.per_vpe.iter().flatten()).any(|e| !e.score.is_finite());
    if non_finite {
        violations.push("a scored event has a non-finite score".to_string());
    }
    failed
}

pub fn run(args: &Args, family: Family) -> Outcome {
    let sim = sim_config(args.seed, args.size);
    let months = sim.months;
    let trace = FleetTrace::simulate(sim);
    let cfg = pipeline_config(family, args.size, months);
    let lines: usize = (0..trace.config.n_vpes).map(|v| trace.messages(v).len()).sum();
    let work = Path::new(WORK_DIR).join(format!("{}-{}", std::process::id(), args.workload));
    let outcome = if args.trace {
        traced(args, family, &trace, &cfg, lines, &work)
    } else {
        untraced(args, &trace, &cfg, lines, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn failed_outcome(msg: String, attempted: u64) -> Outcome {
    Outcome {
        metrics: Vec::new(),
        extra: Vec::new(),
        attempted: attempted.max(1),
        failed: attempted.max(1),
        violations: vec![msg],
        digest: 0,
    }
}

fn untraced(
    args: &Args,
    trace: &FleetTrace,
    cfg: &PipelineConfig,
    lines: usize,
    work: &Path,
) -> Outcome {
    let months = trace.config.months;
    let mut setup = Vec::new();
    for i in 0..SETUP_ONLY_RUNS {
        match setup_only(trace, cfg, &work.join(format!("setup-{}", i))) {
            Ok(s) => setup.push(s),
            Err(e) => return failed_outcome(format!("bring-up failed: {}", e), 1),
        }
    }

    // Full runs until the measuring time is spent.
    let t0 = Instant::now();
    let mut runs: Vec<FullRun> = Vec::new();
    while runs.len() < MIN_FULL_RUNS || secs(t0.elapsed()) < args.seconds {
        let dir = work.join(format!("full-{}", runs.len()));
        match full_run(trace, cfg, &dir, args.inject) {
            Ok(r) => runs.push(r),
            Err(e) => {
                let attempted = (runs.len() * (months - 1)) as u64 + 1;
                return failed_outcome(format!("pipeline failed: {}", e), attempted);
            }
        }
    }

    let mut violations = Vec::new();
    let mut failed = 0;
    for r in &runs {
        failed += check_run(r, months, &mut violations);
    }
    let first = &runs[0];
    let digest = run_digest(&first.run);
    if runs.iter().any(|r| run_digest(&r.run) != digest) {
        violations.push("repeated runs of one seed scored differently".to_string());
    }
    let (best_f, fa_per_day) = quality(&first.run, cfg).unwrap_or_else(|| {
        violations.push("no best-F operating point (empty PR curve)".to_string());
        (0.0, 0.0)
    });

    setup.extend(runs.iter().map(|r| r.setup_s));
    let month_s: Vec<f64> = runs.iter().flat_map(|r| r.month_s.iter().copied()).collect();
    let month_max: Vec<f64> = runs.iter().map(|r| max(&r.month_s)).collect();
    let rates: Vec<f64> = runs.iter().map(|r| lines as f64 / r.wall_s).collect();
    let metrics = vec![
        Metric::new("setup_s", least_disturbed(&setup, 0.25, true), "s", setup.len()),
        Metric::new("peak_rss_mib", report::peak_rss_mib(), "MiB", 1),
        Metric::new("lines_per_s", least_disturbed(&rates, 0.25, false), "lines/s", rates.len()),
        // A month is the analyst's unit of output: its latency is the
        // wall time from one generation to the next.
        Metric::new("latency_p50_ms", median(&month_s) * 1e3, "ms", month_s.len()),
        Metric::new(
            "latency_p99_ms",
            least_disturbed(&month_max, 0.25, true) * 1e3,
            "ms",
            month_max.len(),
        ),
        Metric::new("best_f", best_f, "1", 1),
    ];
    let extra = vec![
        Metric::new("month_s", median(&month_s), "s", month_s.len()),
        Metric::new("month_s_max", least_disturbed(&month_max, 0.25, true), "s", month_max.len()),
        Metric::new("false_alarms_per_day", fa_per_day, "1/day", 1),
    ];
    eprintln!(
        "{}: {} vPEs x {} months, {} lines, {} groups, adaptations {:?}, {} full run(s)",
        args.workload,
        trace.config.n_vpes,
        months,
        lines,
        first.run.grouping.k,
        first.run.adaptations,
        runs.len()
    );
    Outcome {
        metrics,
        extra,
        attempted: (runs.len() * (months - 1)) as u64,
        failed,
        violations,
        digest,
    }
}

/// Accumulated time and work per layer of the replay.
#[derive(Default)]
struct Layers {
    codec_train: f64,
    codec_refresh: f64,
    encode: f64,
    encoded_lines: u64,
    cluster: f64,
    fit: f64,
    update: f64,
    adapt: f64,
    train_windows: u64,
    score: f64,
    scored_windows: u64,
    mapping: f64,
    to_state: f64,
    to_state_calls: u64,
    trim_append: f64,
}

impl Layers {
    fn total(&self) -> f64 {
        self.codec_train
            + self.codec_refresh
            + self.encode
            + self.cluster
            + self.fit
            + self.update
            + self.adapt
            + self.score
            + self.mapping
            + self.to_state
            + self.trim_append
    }
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += secs(t.elapsed());
    r
}

fn build_detector(
    family: Family,
    cfg: &PipelineConfig,
    vocab: usize,
    group: usize,
) -> Box<dyn AnomalyDetector> {
    match family {
        Family::Lstm => {
            let mut c = cfg.lstm.clone();
            c.vocab = vocab;
            c.threads = 1;
            c.seed ^= (group as u64) << 17;
            Box::new(LstmDetector::new(c))
        }
        Family::Gru => {
            let mut c = cfg.gru.clone();
            c.vocab = vocab;
            c.threads = 1;
            c.seed ^= (group as u64) << 17;
            Box::new(GruDetector::new(c))
        }
    }
}

fn window_len(family: Family, cfg: &PipelineConfig) -> usize {
    match family {
        Family::Lstm => cfg.lstm.window,
        Family::Gru => cfg.gru.window,
    }
}

/// Which training call a group pass makes.
#[derive(Clone, Copy)]
enum Train {
    Fit,
    Update,
}

/// Trains every group's detector on its members' ticket-free data in
/// `[start, end)`, one thread per group as `run_pipeline` does. The span
/// is the whole parallel region. Returns the windows the calls saw:
/// every window of the pooled streams, cut to the sampling budget.
#[allow(clippy::too_many_arguments)]
fn train_groups(
    detectors: &mut [Box<dyn AnomalyDetector>],
    members: &[Vec<usize>],
    streams: &[LogStream],
    tickets: &[Vec<&Ticket>],
    cfg: &PipelineConfig,
    (start, end): (u64, u64),
    (window, budget): (usize, usize),
    call: Train,
    span: &mut f64,
) -> u64 {
    timed(span, || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = detectors
                .iter_mut()
                .zip(members)
                .map(|(det, members_g)| {
                    scope.spawn(move || {
                        let pooled: Vec<LogStream> = members_g
                            .iter()
                            .map(|&v| {
                                ticket_free(
                                    &streams[v],
                                    &tickets[v],
                                    cfg.train_exclusion,
                                    start,
                                    end,
                                )
                            })
                            .collect();
                        let refs: Vec<&LogStream> = pooled.iter().collect();
                        match call {
                            Train::Fit => det.fit(&refs),
                            Train::Update => det.update(&refs),
                        }
                        let n: usize = pooled.iter().map(|s| s.len().saturating_sub(window)).sum();
                        n.min(budget) as u64
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a training thread panicked")).sum()
        })
    })
}

/// The pipeline's trigger calibration: a quantile of the scores, or
/// disabled (`+inf`) when there are none.
fn trigger(scores: &[Vec<ScoredEvent>], q: f32) -> f32 {
    let flat: Vec<f32> = scores.iter().flatten().map(|e| e.score).collect();
    nfv_tensor::stats::quantile(&flat, q).unwrap_or(f32::INFINITY)
}

/// Serial replay of `run_pipeline` from public calls, one timer per
/// layer. Returns the per-month scores so the replay can be checked
/// against the untraced run bit for bit.
fn replay(
    family: Family,
    trace: &FleetTrace,
    cfg: &PipelineConfig,
    l: &mut Layers,
) -> Vec<Vec<Vec<ScoredEvent>>> {
    let n_vpes = trace.config.n_vpes;
    let n_months = trace.config.months;
    let month1_end = month_start(1);
    let window = window_len(family, cfg);
    let budget = match family {
        Family::Lstm => cfg.lstm.max_train_windows,
        Family::Gru => cfg.gru.max_train_windows,
    };
    let tickets: Vec<Vec<&Ticket>> = (0..n_vpes).map(|v| trace.tickets_for(v)).collect();

    // Codec mining over an interleaved month-0 sample.
    let per_vpe_budget = (cfg.codec_sample / n_vpes).max(1);
    let mut sample = Vec::new();
    for vpe in 0..n_vpes {
        sample.extend(
            trace
                .messages(vpe)
                .iter()
                .take_while(|m| m.timestamp < month1_end)
                .take(per_vpe_budget)
                .cloned(),
        );
    }
    let mut codec = timed(&mut l.codec_train, || LogCodec::train(&sample, cfg.spare_vocab));
    let vocab = codec.vocab_size();

    let mut consumed = vec![0usize; n_vpes];
    let mut trimmed = vec![0usize; n_vpes];
    let mut streams: Vec<LogStream> = Vec::with_capacity(n_vpes);
    for vpe in 0..n_vpes {
        let msgs = trace.messages(vpe);
        consumed[vpe] = msgs.partition_point(|m| m.timestamp < month1_end);
        l.encoded_lines += consumed[vpe] as u64;
        streams.push(timed(&mut l.encode, || codec.encode_stream(&msgs[..consumed[vpe]])));
    }

    // The grouping layer is timed on this trace even though the
    // workload serves the whole fleet with one model (see
    // `pipeline_config`), so its cost stays visible.
    let clustered = timed(&mut l.cluster, || {
        Grouping::cluster(&streams, vocab, 0, month1_end, 2..=6, cfg.seed)
    });
    std::hint::black_box(clustered);
    let grouping = Grouping::single(n_vpes);
    let members = grouping.members();
    let mut detectors: Vec<Box<dyn AnomalyDetector>> =
        (0..grouping.k).map(|g| build_detector(family, cfg, vocab, g)).collect();
    l.train_windows += train_groups(
        &mut detectors,
        &members,
        &streams,
        &tickets,
        cfg,
        (0, month1_end),
        (window, budget),
        Train::Fit,
        &mut l.fit,
    );
    let mut store = GroupModelStore::new(grouping, detectors);
    for g in 0..store.k() {
        let scores = timed(&mut l.score, || store.score_group(g, &streams, 0, month1_end, 1));
        l.scored_windows += scores.iter().map(|s| s.len() as u64).sum::<u64>();
        store.trigger[g] = trigger(&scores, cfg.trigger_quantile);
    }
    let state_all = |store: &GroupModelStore, l: &mut Layers| {
        for det in &store.detectors {
            std::hint::black_box(timed(&mut l.to_state, || det.to_state()));
            l.to_state_calls += 1;
        }
    };
    state_all(&store, l);

    let mut out = Vec::new();
    for m in 1..n_months {
        let m_start = month_start(m);
        let m_end = month_start(m + 1);
        timed(&mut l.trim_append, || {
            for (stream, t) in streams.iter_mut().zip(trimmed.iter_mut()) {
                let len = stream.len();
                if len > window + 1 {
                    let drop = len - (window + 1);
                    stream.drop_front(drop);
                    *t += drop;
                }
            }
        });
        for (vpe, stream) in streams.iter_mut().enumerate() {
            let msgs = trace.messages(vpe);
            let hi = msgs.partition_point(|msg| msg.timestamp < m_end);
            l.encoded_lines += (hi - consumed[vpe]) as u64;
            let tail = timed(&mut l.encode, || codec.encode_stream(&msgs[consumed[vpe]..hi]));
            timed(&mut l.trim_append, || stream.append(tail));
            consumed[vpe] = hi;
        }
        let mut per_vpe = timed(&mut l.score, || store.score_fleet(&streams, m_start, m_end, 1));
        l.scored_windows += per_vpe.iter().map(|s| s.len() as u64).sum::<u64>();

        for g in 0..store.k() {
            let mut fa = 0usize;
            for &v in &store.members[g] {
                let result = timed(&mut l.mapping, || {
                    let clusters = warning_clusters(&per_vpe[v], store.trigger[g], &cfg.mapping);
                    let owned: Vec<Ticket> = tickets[v].iter().map(|&&t| t).collect();
                    map_clusters(&clusters, &owned, &cfg.mapping)
                });
                fa += result.false_alarms;
            }
            let days = (m_end - m_start) as f32 / DAY as f32;
            let fa_rate = fa as f32 / days / store.members[g].len().max(1) as f32;
            let surged = match store.fa_baseline[g] {
                Some(base) => fa_rate > cfg.fa_surge_factor * (base + 0.02),
                None => false,
            };
            if surged && cfg.adapt {
                let week_end = m_start + cfg.adapt_span;
                let mut week = Vec::new();
                for &v in &store.members[g] {
                    let msgs = trace.messages(v);
                    let lo = msgs.partition_point(|msg| msg.timestamp < m_start);
                    let wk = msgs.partition_point(|msg| msg.timestamp < week_end);
                    week.extend_from_slice(&msgs[lo..wk]);
                }
                timed(&mut l.codec_refresh, || codec.refresh(&week));
                for &v in &store.members[g] {
                    let msgs = trace.messages(v);
                    let hi = msgs.partition_point(|msg| msg.timestamp < m_end);
                    l.encoded_lines += (hi - trimmed[v]) as u64;
                    streams[v] =
                        timed(&mut l.encode, || codec.encode_stream(&msgs[trimmed[v]..hi]));
                    consumed[v] = hi;
                }
                let adapt_streams: Vec<LogStream> = store.members[g]
                    .iter()
                    .map(|&v| {
                        ticket_free(
                            &streams[v],
                            &tickets[v],
                            cfg.train_exclusion,
                            m_start,
                            week_end,
                        )
                    })
                    .collect();
                let refs: Vec<&LogStream> = adapt_streams.iter().collect();
                let n: usize = refs.iter().map(|s| s.len().saturating_sub(window)).sum();
                l.train_windows += n.min(budget) as u64;
                timed(&mut l.adapt, || store.detectors[g].adapt(&refs));
                let rescored =
                    timed(&mut l.score, || store.score_group(g, &streams, week_end, m_end, 1));
                l.scored_windows += rescored.iter().map(|s| s.len() as u64).sum::<u64>();
                for (&v, scored) in store.members[g].iter().zip(rescored) {
                    per_vpe[v].retain(|e| e.time < week_end);
                    per_vpe[v].extend(scored);
                }
                let scores =
                    timed(&mut l.score, || store.score_group(g, &streams, m_start, week_end, 1));
                l.scored_windows += scores.iter().map(|s| s.len() as u64).sum::<u64>();
                store.trigger[g] = trigger(&scores, cfg.trigger_quantile);
                store.fa_baseline[g] = None;
            } else {
                store.fa_baseline[g] = Some(match store.fa_baseline[g] {
                    Some(base) => 0.7 * base + 0.3 * fa_rate,
                    None => fa_rate,
                });
            }
        }
        out.push(per_vpe);

        l.train_windows += train_groups(
            &mut store.detectors,
            &store.members,
            &streams,
            &tickets,
            cfg,
            (m_start, m_end),
            (window, budget),
            Train::Update,
            &mut l.update,
        );
        state_all(&store, l);
    }
    out
}

fn traced(
    args: &Args,
    family: Family,
    trace: &FleetTrace,
    cfg: &PipelineConfig,
    lines: usize,
    work: &Path,
) -> Outcome {
    let months = trace.config.months;
    // The untraced run gives the checks, the checkpoint sizes, and the
    // scores the replay must reproduce.
    let full = match full_run(trace, cfg, &work.join("full"), args.inject) {
        Ok(r) => r,
        Err(e) => return failed_outcome(format!("pipeline failed: {}", e), 1),
    };
    let mut violations = Vec::new();
    let failed = check_run(&full, months, &mut violations);

    // The replay writes no checkpoints, so the overhead base is an
    // untraced run without them.
    let mut plain = cfg.clone();
    plain.checkpoint.dir = None;
    let t0 = Instant::now();
    if let Err(e) = nfv_detect::run_pipeline(trace, &plain) {
        return failed_outcome(format!("pipeline failed: {}", e), 1);
    }
    let base_wall = secs(t0.elapsed());

    // Same GEMM fan-out as the pipeline runs with (`threads: 1`).
    nfv_tensor::gemm::set_threads(1);
    let mut l = Layers::default();
    let t0 = Instant::now();
    let replayed = replay(family, trace, cfg, &mut l);
    let traced_wall = secs(t0.elapsed());
    let same = replayed.len() == full.run.months.len()
        && replayed.iter().zip(&full.run.months).all(|(r, m)| {
            r.len() == m.per_vpe.len()
                && r.iter().zip(&m.per_vpe).all(|(a, b)| {
                    a.len() == b.len()
                        && a.iter().zip(b).all(|(x, y)| {
                            x.time == y.time && x.score.to_bits() == y.score.to_bits()
                        })
                })
        });
    if !same {
        violations.push("traced replay scored differently from run_pipeline".to_string());
    }

    let n_months = (months - 1) as f64;
    let train_time = l.fit + l.update + l.adapt;
    let metrics = vec![
        // Serving layers are not on this workload's path.
        Metric::new("serve.offer_ns_per_line", 0.0, "ns", 0),
        Metric::new("serve.sweep_ns_per_line", 0.0, "ns", 0),
        Metric::new("serve.backlog_max_lines", 0.0, "lines", 0),
        Metric::new("serve.peak_occupancy", 0.0, "lines", 0),
        Metric::new("serve.degraded_sweeps", 0.0, "count", 0),
        Metric::new("supervisor.self_ns_per_line", 0.0, "ns", 0),
        Metric::new("supervisor.duplicates_frac", 0.0, "1", 0),
        Metric::new("syslog.parse_ns_per_line", 0.0, "ns", 0),
        Metric::new("online.observe_ns_per_line", 0.0, "ns", 0),
        Metric::new("online.windows_per_line", 0.0, "1", 0),
        Metric::new("loadgen.late_ms_p99", 0.0, "ms", 0),
        Metric::new(
            "codec.encode_ns_per_line",
            ratio(l.encode * 1e9, l.encoded_lines as f64),
            "ns",
            l.encoded_lines as usize,
        ),
        Metric::new("codec.train_s", l.codec_train, "s", 1),
        Metric::new("codec.refresh_s", l.codec_refresh, "s", full.run.adaptations.len()),
        Metric::new("grouping.cluster_s", l.cluster, "s", 1),
        Metric::new("detector.fit_s", l.fit, "s", 1),
        Metric::new("detector.update_s", l.update, "s", months - 1),
        Metric::new("detector.adapt_s", l.adapt, "s", full.run.adaptations.len()),
        Metric::new(
            "detector.train_windows_per_s",
            ratio(l.train_windows as f64, train_time),
            "windows/s",
            l.train_windows as usize,
        ),
        Metric::new(
            "detector.score_ns_per_window",
            ratio(l.score * 1e9, l.scored_windows as f64),
            "ns",
            l.scored_windows as usize,
        ),
        Metric::new("mapping.ms_per_month", l.mapping * 1e3 / n_months, "ms", months - 1),
        Metric::new("ckpt.bytes", median(&full.ckpt_bytes), "bytes", full.ckpt_bytes.len()),
        Metric::new(
            "detector.to_state_ms",
            ratio(l.to_state * 1e3, l.to_state_calls as f64),
            "ms",
            l.to_state_calls as usize,
        ),
        Metric::new("trace.coverage", ratio(l.total(), traced_wall), "1", 1),
        Metric::new("trace.overhead_frac", traced_wall / base_wall - 1.0, "1", 1),
    ];
    eprintln!(
        "{}: replay {:.2}s vs run_pipeline {:.2}s without checkpoints, over {} lines",
        args.workload, traced_wall, base_wall, lines
    );
    Outcome {
        metrics,
        extra: Vec::new(),
        attempted: (months - 1) as u64,
        failed,
        violations,
        digest: run_digest(&full.run),
    }
}
