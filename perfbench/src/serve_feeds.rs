//! `serve_feeds`: four syslog feeds through the step-mode `ServeCore`
//! that `nfvpredict serve` builds when it trains its own monitor.
//!
//! One thread plays the feeds and the scorer. Phase 1 is an open loop:
//! each load tick (one second of log time on every feed) arrives as one
//! burst on a fixed schedule, 40,000 lines/s across all feeds, whether or
//! not the scorer kept up. A line's latency runs from its tick's due time
//! to the return of the sweep that took it off its ring and through the
//! supervised fleet monitor (parse, dedup, reorder buffer, and batched
//! scoring of whatever the reorder buffer released). Phase 2 is a
//! saturated closed loop that offers the next tick as soon as the last
//! one is scored.
//! Generating lines (`LoadGen::tick_lines`) is never inside a timed
//! interval: the open loop's schedule clock stops while it runs, and the
//! closed loop times only offer and sweep. Input is generated one load
//! tick at a time, never for the whole run up front.

use crate::report::{self, least_disturbed, median, ratio, secs, Digest, Metric, Outcome, Samples};
use crate::{Args, Inject, Size};
use nfv_detect::serve::ServeConfig;
use nfv_detect::supervisor::FleetMonitorConfig;
use nfv_detect::{
    AnomalyDetector, FeedObserver, FleetEvent, FleetMonitor, LogCodec, LstmDetector,
    LstmDetectorConfig, MappingConfig, ModelBundle, OnlineMonitor, ServeCore, ServeEvent,
    ServeState, SharedModel, Warning,
};
use nfv_simnet::load::LOAD_EPOCH;
use nfv_simnet::{LoadGen, LoadSpec, SyslogMessage, TransportFaults, WindowSpec};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FEEDS: usize = 4;
/// Lines per feed per load tick (one second of log time), the CLI's
/// default `--rate`.
const BASE_RATE: u64 = 50;
/// Offered rate of the open loop, lines per second across all feeds.
const OPEN_RATE: f64 = 40_000.0;
const FAULTS: &str = "dup=0.01,reorder=30";
/// Each phase is cut into `SLICES` slices and every timing is read from
/// the least-disturbed `CLEAR_SHARE` of them (see
/// `report::least_disturbed`): slowdowns from the shared host come in
/// stretches of seconds, and a tenth of a 10-second phase is usually
/// clear of them.
const SLICES: usize = 40;
const CLEAR_SHARE: f64 = 0.1;
/// Bring-ups before, between and after the phases, on top of the one
/// that serves; `setup_s` is the lower quartile of all of them.
const SETUP_BATCH: usize = 3;

struct Plan {
    spec: LoadSpec,
    open_ticks: u64,
    closed_ticks: u64,
}

fn plan(args: &Args) -> Plan {
    let (open_ticks, closed_ticks) = match args.size {
        // The open loop takes half the measuring time; the closed loop
        // runs 1.5 times its ticks, about as long at the saturated rate.
        Size::Full => {
            let per_tick = (FEEDS as u64 * BASE_RATE) as f64;
            let open = (args.seconds * 0.5 * OPEN_RATE / per_tick).ceil() as u64;
            (open.max(240), (open * 3 / 2).max(480))
        }
        Size::Small => (240, 120),
    };
    let window = |at: f64| WindowSpec { start: (open_ticks as f64 * at) as u64, len: 6 };
    let spec = LoadSpec {
        feeds: FEEDS,
        base_rate: BASE_RATE,
        bursts: Vec::new(),
        outages: Vec::new(),
        anomalies: vec![window(0.3), window(0.65)],
        anomaly_rate: 3,
        faults: TransportFaults::parse(FAULTS).expect("static fault spec parses"),
        seed: args.seed,
    };
    Plan { spec, open_ticks, closed_ticks }
}

/// A `FeedObserver` that times the monitor's batched scoring (traced
/// runs only).
pub struct Timed {
    inner: OnlineMonitor,
    busy: Duration,
    messages: u64,
}

impl FeedObserver for Timed {
    fn observe(&mut self, message: &SyslogMessage) -> Option<Warning> {
        let t = Instant::now();
        let w = self.inner.observe(message);
        self.busy += t.elapsed();
        self.messages += 1;
        w
    }

    fn observe_batch(&mut self, messages: &[SyslogMessage], warnings: &mut Vec<Warning>) {
        let t = Instant::now();
        self.inner.observe_batch(messages, warnings);
        self.busy += t.elapsed();
        self.messages += messages.len() as u64;
    }

    fn set_stride(&mut self, stride: usize) {
        self.inner.set_stride(stride)
    }
}

/// Time spent in each part of the CLI's self-training bring-up.
#[derive(Default)]
struct SetupTimes {
    total: f64,
    codec_train: f64,
    fit: f64,
    fit_windows: u64,
    to_state_ms: f64,
}

/// The CLI's bring-up without `--model`: train the codec and a small
/// LSTM on the load's clean cadence, calibrate, pack and unpack the
/// bundle, then build the fleet monitor and the serving core.
fn bring_up<O: FeedObserver>(
    spec: &LoadSpec,
    wrap: impl Fn(OnlineMonitor) -> O,
) -> (ServeCore<O>, SetupTimes, Arc<LogCodec>) {
    let gen = LoadGen::new(spec.clone());
    let train = gen.training_messages((1200 / spec.base_rate.max(1)).max(4));
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let codec = LogCodec::train(&train, 4);
    times.codec_train = secs(t0.elapsed());
    let mut det = LstmDetector::new(LstmDetectorConfig {
        vocab: codec.vocab_size(),
        window: 4,
        embed_dim: 6,
        hidden: 10,
        epochs: 3,
        max_train_windows: 2000,
        threads: 1,
        ..Default::default()
    });
    let stream = codec.encode_stream(&train);
    times.fit_windows = stream.len().saturating_sub(4).min(2000) as u64;
    let tf = Instant::now();
    det.fit(&[&stream]);
    times.fit = secs(tf.elapsed());
    let max_score = det.score(&stream, 0, u64::MAX).iter().map(|e| e.score).fold(0.0f32, f32::max);
    assert!(max_score > 0.0, "self-training produced no scores to calibrate a threshold");
    let bundle = ModelBundle::pack(&codec, &det, max_score * 1.05, &MappingConfig::default());
    let shared: SharedModel = bundle.try_unpack_shared().expect("a freshly packed bundle unpacks");
    let fleet_cfg =
        FleetMonitorConfig { reorder_window: spec.faults.reorder, ..Default::default() };
    let monitors: Vec<O> = (0..spec.feeds).map(|_| wrap(shared.monitor())).collect();
    let core = ServeCore::new(FleetMonitor::new(monitors, fleet_cfg), ServeConfig::default());
    times.total = secs(t0.elapsed());
    let ts = Instant::now();
    std::hint::black_box(det.to_state());
    times.to_state_ms = secs(ts.elapsed()) * 1e3;
    (core, times, shared.codec)
}

/// One load tick for every feed, interleaved round-robin the way
/// concurrent feeds arrive.
fn tick_chunk(gen: &mut LoadGen, tick: u64) -> Vec<(usize, String)> {
    let mut per_feed: Vec<VecDeque<String>> =
        (0..FEEDS).map(|f| gen.tick_lines(tick, f).into()).collect();
    let mut out = Vec::with_capacity(per_feed.iter().map(|q| q.len()).sum());
    while out.len() < out.capacity() {
        for (f, q) in per_feed.iter_mut().enumerate() {
            if let Some(line) = q.pop_front() {
                out.push((f, line));
            }
        }
    }
    out
}

/// Everything the two phases observe.
#[derive(Default)]
struct Observed {
    warnings: Vec<(usize, Warning)>,
    other_events: u64,
    latency_ms: Samples,
    late_ms: Samples,
    open_lines: u64,
    open_dropped: u64,
    open_state_healthy: bool,
    closed_lines: u64,
    /// Time in offer and sweep during the closed loop.
    closed_s: f64,
    /// Lines offered and time in offer and sweep, per closed-loop tick.
    closed_ticks: Vec<(u64, f64)>,
    /// Wall time of the closed loop, input generation included.
    closed_wall_s: f64,
    offer_s: f64,
    sweep_s: f64,
    sweeps: u64,
    degraded_sweeps: u64,
    backlog_max: usize,
}

impl Observed {
    fn absorb(&mut self, events: Vec<ServeEvent>) {
        for ev in events {
            match ev {
                ServeEvent::Fleet { event: FleetEvent::Warning { feed, warning }, .. } => {
                    self.warnings.push((feed, warning))
                }
                _ => self.other_events += 1,
            }
        }
    }
}

fn sweep<O: FeedObserver>(core: &mut ServeCore<O>, obs: &mut Observed) {
    obs.backlog_max = obs.backlog_max.max(core.backlog());
    let events = core.sweep();
    obs.sweeps += 1;
    if core.state() == ServeState::Degraded {
        obs.degraded_sweeps += 1;
    }
    obs.absorb(events);
}

fn delivered<O: FeedObserver>(core: &ServeCore<O>) -> Vec<u64> {
    core.stats().feeds.iter().map(|f| f.delivered).collect()
}

fn open_loop<O: FeedObserver>(
    core: &mut ServeCore<O>,
    gen: &mut LoadGen,
    ticks: u64,
    obs: &mut Observed,
) {
    let origin = Instant::now();
    // Time spent generating input is cut out of the schedule clock.
    let mut excluded = Duration::ZERO;
    let clock = |excluded: Duration| secs(origin.elapsed() - excluded);
    let mut due_fifo: Vec<VecDeque<f64>> = vec![VecDeque::new(); FEEDS];
    let mut seen = delivered(core);
    let mut lines_before = 0u64;
    // One sweep; every line it delivered gets its latency.
    let mut record = |core: &mut ServeCore<O>,
                      obs: &mut Observed,
                      due_fifo: &mut [VecDeque<f64>],
                      excluded: Duration| {
        sweep(core, obs);
        let done = clock(excluded);
        let now_delivered = delivered(core);
        for f in 0..FEEDS {
            for _ in seen[f]..now_delivered[f] {
                let due = due_fifo[f].pop_front().expect("a delivered line was offered");
                obs.latency_ms.push((done - due) * 1e3, 1);
            }
        }
        seen = now_delivered;
    };
    for tick in 0..ticks {
        let g = Instant::now();
        let chunk = tick_chunk(gen, tick);
        excluded += g.elapsed();
        // The tick arrives as one burst, due once every line before it
        // has had its share of the offered rate.
        let due = lines_before as f64 / OPEN_RATE;
        lines_before += chunk.len() as u64;
        while clock(excluded) < due {
            std::hint::spin_loop();
        }
        let late_ms = (clock(excluded) - due) * 1e3;
        obs.late_ms.push(late_ms, chunk.len() as u64);
        for (f, line) in &chunk {
            core.offer(*f, line).expect("every port stays with the core in step mode");
            due_fifo[*f].push_back(due);
        }
        record(core, obs, &mut due_fifo, excluded);
        // A tick larger than one sweep's budget takes more sweeps.
        while core.backlog() > 0 && clock(excluded) < lines_before as f64 / OPEN_RATE {
            record(core, obs, &mut due_fifo, excluded);
        }
    }
    while core.backlog() > 0 {
        record(core, obs, &mut due_fifo, excluded);
    }
    let stats = core.stats();
    obs.open_lines = stats.lines_in();
    obs.open_dropped = stats.dropped();
    obs.open_state_healthy = stats.state == ServeState::Healthy;
}

fn closed_loop<O: FeedObserver>(
    core: &mut ServeCore<O>,
    gen: &mut LoadGen,
    ticks: std::ops::Range<u64>,
    obs: &mut Observed,
) {
    let wall = Instant::now();
    let before: u64 = delivered(core).iter().sum();
    for tick in ticks {
        let chunk = tick_chunk(gen, tick);
        let t = Instant::now();
        for (f, line) in &chunk {
            core.offer(*f, line).expect("every port stays with the core in step mode");
        }
        let offered = Instant::now();
        loop {
            sweep(core, obs);
            if core.backlog() == 0 {
                break;
            }
        }
        let swept = Instant::now();
        obs.offer_s += secs(offered - t);
        obs.sweep_s += secs(swept - offered);
        obs.closed_s += secs(swept - t);
        obs.closed_ticks.push((chunk.len() as u64, secs(swept - t)));
    }
    let t = Instant::now();
    let events = core.finish();
    let fin = secs(t.elapsed());
    obs.sweep_s += fin;
    obs.closed_s += fin;
    if let Some(last) = obs.closed_ticks.last_mut() {
        last.1 += fin;
    }
    obs.absorb(events);
    obs.closed_lines = delivered(core).iter().sum::<u64>() - before;
    obs.closed_wall_s = secs(wall.elapsed());
}

/// Detection quality of the served warnings against the load's anomaly
/// windows: `(best_f, false_alarms_per_day, warnings_in_each_window)`.
fn quality(
    spec: &LoadSpec,
    warnings: &[(usize, Warning)],
    log_ticks: u64,
) -> (f64, f64, Vec<Vec<u64>>) {
    // A warning belongs to a window when its cluster starts inside it.
    let window_of = |w: &Warning| {
        spec.anomalies.iter().position(|a| a.contains(w.start.saturating_sub(LOAD_EPOCH)))
    };
    let mut hits = vec![vec![0u64; spec.anomalies.len()]; FEEDS];
    for (f, w) in warnings {
        if let Some(i) = window_of(w) {
            hits[*f][i] += 1;
        }
    }
    let mut thresholds: Vec<f32> = warnings.iter().map(|(_, w)| w.peak_score).collect();
    thresholds.sort_by(f32::total_cmp);
    thresholds.dedup();
    let pairs = (FEEDS * spec.anomalies.len()) as f64;
    let feed_days = FEEDS as f64 * log_ticks as f64 / 86_400.0;
    let mut best = (0.0, 0.0);
    for &t in &thresholds {
        let mut tp = 0u64;
        let mut fp = 0u64;
        let mut found = vec![vec![false; spec.anomalies.len()]; FEEDS];
        for (f, w) in warnings.iter().filter(|(_, w)| w.peak_score >= t) {
            match window_of(w) {
                Some(i) => {
                    tp += 1;
                    found[*f][i] = true;
                }
                None => fp += 1,
            }
        }
        let precision = tp as f64 / (tp + fp) as f64;
        let recall = found.iter().flatten().filter(|&&x| x).count() as f64 / pairs;
        let f1 = ratio(2.0 * precision * recall, precision + recall);
        if f1 > best.0 {
            best = (f1, fp as f64 / feed_days);
        }
    }
    (best.0, best.1, hits)
}

fn digest<O: FeedObserver>(core: &ServeCore<O>, warnings: &[(usize, Warning)]) -> u64 {
    let mut d = Digest::new();
    for (f, w) in warnings {
        d.u64(*f as u64);
        d.u64(w.start);
        d.u64(w.anomalies as u64);
        d.u64(w.peak_score.to_bits() as u64);
        d.bytes(w.peak_text.as_bytes());
    }
    for h in core.fleet().healths() {
        for v in [h.messages, h.parse_errors, h.duplicates_dropped, h.reorders_absorbed, h.warnings]
        {
            d.u64(v);
        }
    }
    d.finish()
}

/// Phase 1, with its own checks: zero drops and a healthy end state.
fn open_phase<O: FeedObserver>(
    core: &mut ServeCore<O>,
    gen: &mut LoadGen,
    p: &Plan,
    inject: Inject,
    obs: &mut Observed,
    violations: &mut Vec<String>,
) {
    if inject == Inject::Drop {
        // A burst far past ring capacity: lines must be dropped.
        for i in 0..ServeConfig::default().capacity * 2 {
            let _ = core.offer(0, &format!("<13>Oct  1 00:00:00 injected burst line {}", i));
        }
        while core.backlog() > 0 {
            core.sweep();
        }
    }
    open_loop(core, gen, p.open_ticks, obs);
    if obs.open_dropped > 0 {
        violations.push(format!("open loop dropped {} lines", obs.open_dropped));
    }
    if !obs.open_state_healthy {
        violations.push("open loop ended degraded".to_string());
    }
}

/// Per-feed ledger checks after both phases.
fn check_ledger<O: FeedObserver>(core: &ServeCore<O>, violations: &mut Vec<String>) {
    let capacity = ServeConfig::default().capacity.next_power_of_two();
    for (f, fs) in core.stats().feeds.iter().enumerate() {
        if fs.lines_in != fs.delivered + fs.dropped_overflow + fs.dropped_shed {
            violations.push(format!(
                "feed {}: lines_in {} != delivered {} + overflow {} + shed {}",
                f, fs.lines_in, fs.delivered, fs.dropped_overflow, fs.dropped_shed
            ));
        }
        if fs.peak_occupancy > capacity {
            violations.push(format!(
                "feed {}: peak occupancy {} above capacity {}",
                f, fs.peak_occupancy, capacity
            ));
        }
    }
}

/// Both phases on one core, then the ledger checks.
fn serve<O: FeedObserver>(
    core: &mut ServeCore<O>,
    p: &Plan,
    inject: Inject,
    violations: &mut Vec<String>,
) -> Observed {
    let mut obs = Observed::default();
    let mut gen = LoadGen::new(p.spec.clone());
    open_phase(core, &mut gen, p, inject, &mut obs, violations);
    closed_loop(core, &mut gen, p.open_ticks..p.open_ticks + p.closed_ticks, &mut obs);
    check_ledger(core, violations);
    obs
}

/// Lines per second of each of `SLICES` consecutive runs of
/// closed-loop ticks.
fn slice_rates(ticks: &[(u64, f64)]) -> Vec<f64> {
    let per = ticks.len().div_ceil(SLICES).max(1);
    ticks
        .chunks(per)
        .map(|c| c.iter().map(|t| t.0).sum::<u64>() as f64 / c.iter().map(|t| t.1).sum::<f64>())
        .collect()
}

fn failed_lines<O: FeedObserver>(core: &ServeCore<O>) -> u64 {
    let stats = core.stats();
    let unscored: u64 = core.fleet().healths().iter().map(|h| h.parse_errors + h.skipped).sum();
    stats.dropped() + unscored
}

fn check_windows(hits: &[Vec<u64>], violations: &mut Vec<String>) {
    for (f, per_window) in hits.iter().enumerate() {
        for (i, &n) in per_window.iter().enumerate() {
            if n == 0 {
                violations.push(format!("feed {} raised no warning in anomaly window {}", f, i));
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let p = plan(args);
    if args.trace {
        return traced(args, &p);
    }
    // Further bring-ups run before, between and after the phases, so
    // some of them fall in stretches the host left alone.
    let more_bring_ups = |setup: &mut Vec<f64>| {
        for _ in 0..SETUP_BATCH {
            setup.push(bring_up(&p.spec, |m| m).1.total);
        }
    };
    let (mut core, first, _) = bring_up(&p.spec, |m| m);
    let mut setup = vec![first.total];
    more_bring_ups(&mut setup);
    let mut violations = Vec::new();
    let mut obs = Observed::default();
    let mut gen = LoadGen::new(p.spec.clone());
    open_phase(&mut core, &mut gen, &p, args.inject, &mut obs, &mut violations);
    more_bring_ups(&mut setup);
    closed_loop(&mut core, &mut gen, p.open_ticks..p.open_ticks + p.closed_ticks, &mut obs);
    check_ledger(&core, &mut violations);
    more_bring_ups(&mut setup);
    let log_ticks = p.open_ticks + p.closed_ticks;
    let (best_f, fa_per_day, hits) = quality(&p.spec, &obs.warnings, log_ticks);
    check_windows(&hits, &mut violations);

    let n_lat = obs.latency_ms.count() as usize;
    let metrics = vec![
        Metric::new("setup_s", least_disturbed(&setup, 0.25, true), "s", setup.len()),
        Metric::new("peak_rss_mib", report::peak_rss_mib(), "MiB", 1),
        Metric::new(
            "lines_per_s",
            least_disturbed(&slice_rates(&obs.closed_ticks), CLEAR_SHARE, false),
            "lines/s",
            obs.closed_lines as usize,
        ),
        Metric::new(
            "latency_p50_ms",
            least_disturbed(&obs.latency_ms.per_slice(0.5, SLICES), CLEAR_SHARE, true),
            "ms",
            n_lat,
        ),
        Metric::new(
            "latency_p99_ms",
            least_disturbed(&obs.latency_ms.per_slice(0.99, SLICES), CLEAR_SHARE, true),
            "ms",
            n_lat,
        ),
        Metric::new("best_f", best_f, "1", obs.warnings.len()),
    ];
    let extra = vec![
        Metric::new("false_alarms_per_day", fa_per_day, "1/day", obs.warnings.len()),
        Metric::new(
            "loadgen.late_ms_p99",
            obs.late_ms.quantile(0.99),
            "ms",
            obs.late_ms.count() as usize,
        ),
    ];
    eprintln!(
        "serve_feeds: open loop {} lines ({} sweeps), closed loop {} lines in {:.3}s, \
         generator late p99 {:.3} ms, warnings {}, other events {}",
        obs.open_lines,
        obs.sweeps,
        obs.closed_lines,
        obs.closed_s,
        obs.late_ms.quantile(0.99),
        obs.warnings.len(),
        obs.other_events
    );
    Outcome {
        metrics,
        extra,
        attempted: core.stats().lines_in(),
        failed: failed_lines(&core),
        violations,
        digest: digest(&core, &obs.warnings),
    }
}

/// Scoring time, messages and windows of every timed observer.
fn observer_totals(core: &ServeCore<Timed>) -> (f64, u64, u64) {
    let fleet = core.fleet();
    (0..FEEDS).filter_map(|f| fleet.observer(f)).fold((0.0, 0, 0), |(s, m, w), o| {
        (s + secs(o.busy), m + o.messages, w + o.inner.windows_scored())
    })
}

fn traced(args: &Args, p: &Plan) -> Outcome {
    let mut violations = Vec::new();
    // The same run untraced first: the base for the tracing overhead.
    let (mut plain, _, _) = bring_up(&p.spec, |m| m);
    let base = serve(&mut plain, p, args.inject, &mut violations);
    drop(plain);

    let (mut core, times, codec) =
        bring_up(&p.spec, |m| Timed { inner: m, busy: Duration::ZERO, messages: 0 });
    let mut obs = Observed::default();
    let mut gen = LoadGen::new(p.spec.clone());
    open_phase(&mut core, &mut gen, p, args.inject, &mut obs, &mut violations);
    let (busy0, messages0, windows0) = observer_totals(&core);
    closed_loop(&mut core, &mut gen, p.open_ticks..p.open_ticks + p.closed_ticks, &mut obs);
    let (busy1, messages1, windows1) = observer_totals(&core);
    check_ledger(&core, &mut violations);
    let (_, _, hits) = quality(&p.spec, &obs.warnings, p.open_ticks + p.closed_ticks);
    check_windows(&hits, &mut violations);

    // Closed-loop figures only, so every ratio shares one interval.
    let observe_s = busy1 - busy0;
    let observed = (messages1 - messages0) as f64;
    let windows = (windows1 - windows0) as f64;
    let lines = obs.closed_lines as f64;
    let n = obs.closed_lines as usize;
    let dups: u64 = core.fleet().healths().iter().map(|h| h.duplicates_dropped).sum();
    let peak_occupancy = core.stats().feeds.iter().map(|f| f.peak_occupancy).max().unwrap_or(0);
    let (parse_ns, encode_ns, passes) = parse_encode_pass(p, &codec);

    let metrics = vec![
        Metric::new("serve.offer_ns_per_line", obs.offer_s * 1e9 / lines, "ns", n),
        Metric::new("serve.sweep_ns_per_line", obs.sweep_s * 1e9 / lines, "ns", n),
        Metric::new(
            "serve.backlog_max_lines",
            obs.backlog_max as f64,
            "lines",
            obs.sweeps as usize,
        ),
        Metric::new("serve.peak_occupancy", peak_occupancy as f64, "lines", FEEDS),
        Metric::new(
            "serve.degraded_sweeps",
            obs.degraded_sweeps as f64,
            "count",
            obs.sweeps as usize,
        ),
        Metric::new(
            "supervisor.self_ns_per_line",
            (obs.sweep_s - observe_s) * 1e9 / lines,
            "ns",
            n,
        ),
        Metric::new(
            "supervisor.duplicates_frac",
            dups as f64 / core.stats().delivered() as f64,
            "1",
            core.stats().delivered() as usize,
        ),
        Metric::new("syslog.parse_ns_per_line", parse_ns, "ns", passes),
        Metric::new(
            "online.observe_ns_per_line",
            ratio(observe_s * 1e9, observed),
            "ns",
            observed as usize,
        ),
        Metric::new("online.windows_per_line", ratio(windows, observed), "1", observed as usize),
        Metric::new(
            "loadgen.late_ms_p99",
            obs.late_ms.quantile(0.99),
            "ms",
            obs.late_ms.count() as usize,
        ),
        Metric::new("codec.encode_ns_per_line", encode_ns, "ns", passes),
        Metric::new("codec.train_s", times.codec_train, "s", 1),
        Metric::new("codec.refresh_s", 0.0, "s", 0),
        Metric::new("grouping.cluster_s", 0.0, "s", 0),
        Metric::new("detector.fit_s", times.fit, "s", 1),
        Metric::new("detector.update_s", 0.0, "s", 0),
        Metric::new("detector.adapt_s", 0.0, "s", 0),
        Metric::new(
            "detector.train_windows_per_s",
            times.fit_windows as f64 / times.fit,
            "windows/s",
            times.fit_windows as usize,
        ),
        Metric::new(
            "detector.score_ns_per_window",
            ratio(observe_s * 1e9, windows),
            "ns",
            windows as usize,
        ),
        Metric::new("mapping.ms_per_month", 0.0, "ms", 0),
        Metric::new("ckpt.bytes", 0.0, "bytes", 0),
        Metric::new("detector.to_state_ms", times.to_state_ms, "ms", 1),
        Metric::new("trace.coverage", (obs.offer_s + obs.sweep_s) / obs.closed_wall_s, "1", 1),
        Metric::new("trace.overhead_frac", obs.closed_s / base.closed_s - 1.0, "1", 1),
    ];
    Outcome {
        metrics,
        extra: Vec::new(),
        attempted: core.stats().lines_in(),
        failed: failed_lines(&core),
        violations,
        digest: digest(&core, &obs.warnings),
    }
}

/// Median ns per line of `parse_line` and of the served codec's
/// `encode_text`, each timed in its own pass over the load's lines.
fn parse_encode_pass(p: &Plan, codec: &LogCodec) -> (f64, f64, usize) {
    let mut gen = LoadGen::new(p.spec.clone());
    let mut parse_rates = Vec::new();
    let mut encode_rates = Vec::new();
    for tick in 0..p.closed_ticks {
        let chunk = tick_chunk(&mut gen, tick);
        let t = Instant::now();
        let parsed: Vec<SyslogMessage> =
            chunk.iter().filter_map(|(_, l)| nfv_syslog::parse::parse_line(l, 0).ok()).collect();
        parse_rates.push(secs(t.elapsed()) * 1e9 / chunk.len() as f64);
        let t = Instant::now();
        for m in &parsed {
            std::hint::black_box(codec.encode_text(&m.text));
        }
        encode_rates.push(secs(t.elapsed()) * 1e9 / parsed.len().max(1) as f64);
    }
    (median(&parse_rates), median(&encode_rates), parse_rates.len())
}
