//! `vc_telemetry`: a lock-light observability layer for the DRL-CEWS
//! training stack.
//!
//! The crate provides three metric primitives — [`Counter`], [`Gauge`], and
//! fixed-bucket [`Histogram`] — behind a cloneable [`Telemetry`] handle,
//! plus a span/event API with two sinks:
//!
//! - an append-only **JSONL event log** ([`Telemetry::attach_jsonl`]): one
//!   self-contained JSON object per line, written line-atomically;
//! - a **Prometheus-style text dump** ([`Telemetry::prometheus`] /
//!   [`Telemetry::write_prometheus`]) of every registered metric.
//!
//! # Overhead policy
//!
//! A disabled handle ([`Telemetry::off`], the default) costs one relaxed
//! atomic load per instrumentation site: [`Telemetry::is_on`] is the only
//! thing hot paths check before doing any metric work. Recording itself is
//! lock-free (plain atomics); the registry lock is touched only at
//! registration time, and instrumented components cache the returned `Arc`
//! handles. Event emission takes the sink mutex but happens at round /
//! episode granularity, never inside kernels.
//!
//! ```
//! use vc_telemetry::{Field, Telemetry};
//!
//! let t = Telemetry::new();
//! let rounds = t.counter("chief_rounds_total");
//! rounds.inc();
//! t.event("round", &[("round", Field::U64(0)), ("gather_ms", Field::F64(1.25))]);
//! assert!(t.prometheus().contains("chief_rounds_total 1"));
//! ```

pub mod expo;
pub mod metrics;
pub mod sink;
/// Sync primitive facade: std normally, `loom` under `--cfg loom`.
pub mod sync;

pub use expo::{escape_label_value, ExpositionError, MetricKey};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use sink::Field;

use sink::{prom_float, JsonlSink, SharedSink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use sync::{lock_unpoisoned, AtomicBool, AtomicU64, Mutex, Ordering};

/// Default span-duration bucket bounds, in seconds (~100µs .. 30s).
pub const SPAN_SECONDS_BOUNDS: [f64; 10] =
    [1e-4, 5e-4, 2e-3, 1e-2, 5e-2, 0.2, 1.0, 5.0, 15.0, 30.0];

/// Registry state shared by every clone of a [`Telemetry`] handle.
struct Shared {
    enabled: AtomicBool,
    seq: AtomicU64,
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<MetricKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
    sink: SharedSink,
}

/// A cloneable handle to a metrics registry and its sinks.
///
/// All clones share one registry, one enabled flag, and one JSONL sink.
/// Embed it wherever instrumentation is needed; a handle from
/// [`Telemetry::off`] keeps every operation a cheap no-op.
#[derive(Clone)]
pub struct Telemetry {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_on()).finish()
    }
}

impl Default for Telemetry {
    /// Equivalent to [`Telemetry::off`].
    fn default() -> Self {
        Telemetry::off()
    }
}

impl Telemetry {
    fn with_enabled(enabled: bool) -> Self {
        Telemetry {
            shared: Arc::new(Shared {
                enabled: AtomicBool::new(enabled),
                seq: AtomicU64::new(0),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                sink: Mutex::new(None),
            }),
        }
    }

    /// An enabled registry with no sinks attached yet.
    #[must_use]
    pub fn new() -> Self {
        Telemetry::with_enabled(true)
    }

    /// A disabled registry: every recording operation is a no-op after one
    /// relaxed atomic load.
    #[must_use]
    pub fn off() -> Self {
        Telemetry::with_enabled(false)
    }

    /// Whether recording is enabled — the one check hot paths make.
    #[inline]
    pub fn is_on(&self) -> bool {
        // ordering: standalone on/off flag — a record racing the toggle
        // may or may not be kept, both acceptable; no other memory is
        // published through it (handles travel via Arc/the registry lock).
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables recording on all clones of this handle.
    pub fn set_on(&self, on: bool) {
        self.shared.enabled.store(on, Ordering::Relaxed); // ordering: see is_on
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Cache the returned `Arc` rather than re-looking-up per record.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_labeled(name, &[])
    }

    /// Returns the counter series `name{labels}`, creating it on first
    /// use. Label pairs are sorted internally, so registration order does
    /// not fork duplicate series; label *values* may hold any UTF-8 and
    /// are escaped at exposition time.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::labeled(name, labels);
        let mut map = lock_unpoisoned(&self.shared.counters);
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Counter::new())))
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_labeled(name, &[])
    }

    /// Returns the gauge series `name{labels}`, creating it on first use.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::labeled(name, labels);
        let mut map = lock_unpoisoned(&self.shared.gauges);
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Gauge::new())))
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given bucket bounds on first use (later calls keep the first bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_labeled(name, &[], bounds)
    }

    /// Returns the histogram series `name{labels}`, creating it with
    /// `bounds` on first use (later calls keep the first bounds).
    pub fn histogram_labeled(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        let key = MetricKey::labeled(name, labels);
        let mut map = lock_unpoisoned(&self.shared.histograms);
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(Histogram::new(bounds))))
    }

    /// Attaches (or replaces) the JSONL event sink, appending to `path`.
    pub fn attach_jsonl(&self, path: &Path) -> io::Result<()> {
        let sink = JsonlSink::open(path)?;
        *lock_unpoisoned(&self.shared.sink) = Some(sink);
        Ok(())
    }

    /// Emits one event line to the JSONL sink.
    ///
    /// No-op when disabled or when no sink is attached. The line carries
    /// `"type"` and a process-wide monotone `"seq"` before the caller's
    /// fields, and is written as a single `write_all` so concurrent events
    /// never interleave. Sink I/O errors are swallowed: telemetry must
    /// never fail training.
    pub fn event(&self, kind: &str, fields: &[(&str, Field<'_>)]) {
        if !self.is_on() {
            return;
        }
        let mut guard = lock_unpoisoned(&self.shared.sink);
        let Some(sink) = guard.as_mut() else { return };
        // ordering: always executed under the sink lock, which already
        // serializes emitters; the atomic only makes `seq` safe to move
        // out from under the lock later.
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let line = sink::format_event_line(kind, seq, fields);
        let _ = sink.write_line(&line);
    }

    /// Flushes the JSONL sink (if any) to the OS.
    pub fn flush(&self) -> io::Result<()> {
        if let Some(sink) = lock_unpoisoned(&self.shared.sink).as_mut() {
            sink.flush()?;
        }
        Ok(())
    }

    /// Starts a duration span that records elapsed seconds into the
    /// histogram `name` (with [`SPAN_SECONDS_BOUNDS`]) when dropped or
    /// [`finish`](Span::finish)ed. Returns an inert span when disabled.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        if !self.is_on() {
            return Span { hist: None, start: Instant::now() };
        }
        Span { hist: Some(self.histogram(name, &SPAN_SECONDS_BOUNDS)), start: Instant::now() }
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format, names sorted, histograms with cumulative `le` buckets.
    ///
    /// Infallible variant of [`Telemetry::try_prometheus`]: series whose
    /// metric or label names fail validation are *skipped* (with an
    /// explanatory `#` comment) rather than emitted malformed, so the page
    /// always parses.
    #[must_use]
    pub fn prometheus(&self) -> String {
        self.render_prometheus(false).unwrap_or_default()
    }

    /// Renders the exposition page, failing with a typed
    /// [`ExpositionError`] if any registered metric or label name is
    /// outside the Prometheus charset — nothing malformed is ever
    /// returned. (Names are `&str`, so non-UTF-8 is unrepresentable; this
    /// catches the remaining ways a name can corrupt the page.)
    pub fn try_prometheus(&self) -> Result<String, ExpositionError> {
        // `strict` guarantees `render_prometheus` only returns `Err`.
        self.render_prometheus(true)
    }

    /// Shared renderer: in strict mode the first invalid name aborts with
    /// its typed error; otherwise invalid series degrade to a comment.
    fn render_prometheus(&self, strict: bool) -> Result<String, ExpositionError> {
        let mut out = String::new();
        let skip = |out: &mut String, err: ExpositionError| -> Result<(), ExpositionError> {
            if strict {
                return Err(err);
            }
            let _ = writeln!(out, "# skipped series: {}", err.to_string().replace('\n', " "));
            Ok(())
        };
        let mut last_type: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_type.as_deref() != Some(name) {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_type = Some(name.to_owned());
            }
        };
        for (key, c) in lock_unpoisoned(&self.shared.counters).iter() {
            if let Err(err) = key.validate() {
                skip(&mut out, err)?;
                continue;
            }
            type_line(&mut out, &key.name, "counter");
            let _ = writeln!(out, "{}{} {}", key.name, key.label_block(None), c.get());
        }
        for (key, g) in lock_unpoisoned(&self.shared.gauges).iter() {
            if let Err(err) = key.validate() {
                skip(&mut out, err)?;
                continue;
            }
            type_line(&mut out, &key.name, "gauge");
            let _ = writeln!(out, "{}{} {}", key.name, key.label_block(None), prom_float(g.get()));
        }
        for (key, h) in lock_unpoisoned(&self.shared.histograms).iter() {
            if let Err(err) = key.validate() {
                skip(&mut out, err)?;
                continue;
            }
            let snap = h.snapshot();
            type_line(&mut out, &key.name, "histogram");
            let mut cumulative = 0u64;
            for (i, bucket) in snap.buckets.iter().enumerate() {
                cumulative += bucket;
                let le = snap.bounds.get(i).map_or_else(|| "+Inf".to_owned(), |b| prom_float(*b));
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cumulative}",
                    key.name,
                    key.label_block(Some(("le", &le)))
                );
            }
            let _ =
                writeln!(out, "{}_sum{} {}", key.name, key.label_block(None), prom_float(snap.sum));
            let _ = writeln!(out, "{}_count{} {}", key.name, key.label_block(None), snap.count);
        }
        Ok(out)
    }

    /// Writes [`Telemetry::prometheus`] output to `path`, creating parent
    /// directories as needed.
    pub fn write_prometheus(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.prometheus())
    }
}

/// A timing guard from [`Telemetry::span`]; records elapsed seconds into
/// its histogram on drop.
#[derive(Debug)]
pub struct Span {
    hist: Option<Arc<Histogram>>,
    start: Instant,
}

impl Span {
    /// Ends the span now, recording its duration; equivalent to dropping.
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.observe(self.start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn lock_returns_guard_directly() {
        let m = Mutex::new(5);
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 6);
    }

    #[test]
    fn survives_poisoning_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock_unpoisoned(&m2);
            panic!("poison the lock");
        })
        .join();
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 1);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let t = Telemetry::new();
        t.counter("a").add(2);
        t.counter("a").inc();
        assert_eq!(t.counter("a").get(), 3);
        let clone = t.clone();
        clone.counter("a").inc();
        assert_eq!(t.counter("a").get(), 4);
    }

    #[test]
    fn prometheus_renders_all_kinds() {
        let t = Telemetry::new();
        t.counter("c_total").inc();
        t.gauge("g").set(1.5);
        t.histogram("h", &[1.0, 2.0]).observe(1.5);
        let text = t.prometheus();
        assert!(text.contains("# TYPE c_total counter\nc_total 1\n"));
        assert!(text.contains("# TYPE g gauge\ng 1.5\n"));
        assert!(text.contains("h_bucket{le=\"1.0\"} 0"));
        assert!(text.contains("h_bucket{le=\"2.0\"} 1"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("h_count 1"));
    }

    #[test]
    fn labeled_series_escape_and_share_type_header() {
        let t = Telemetry::new();
        t.counter_labeled("req_total", &[("peer", "a\\b\"c\nd")]).inc();
        t.counter_labeled("req_total", &[("peer", "plain")]).add(2);
        let text = t.try_prometheus().unwrap();
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert!(text.contains("req_total{peer=\"a\\\\b\\\"c\\nd\"} 1"));
        assert!(text.contains("req_total{peer=\"plain\"} 2"));
        // Labeled histograms keep their own labels alongside `le`.
        t.histogram_labeled("lat", &[("mode", "x")], &[1.0]).observe(0.5);
        let text = t.try_prometheus().unwrap();
        assert!(text.contains("lat_bucket{mode=\"x\",le=\"1.0\"} 1"));
        assert!(text.contains("lat_sum{mode=\"x\"} 0.5"));
    }

    #[test]
    fn invalid_names_fail_typed_and_never_emit_malformed() {
        let t = Telemetry::new();
        t.counter("ok_total").inc();
        t.counter("bad name").inc();
        assert_eq!(
            t.try_prometheus(),
            Err(ExpositionError::InvalidMetricName("bad name".to_owned()))
        );
        // The infallible page skips the bad series but stays parseable.
        let page = t.prometheus();
        assert!(page.contains("ok_total 1"));
        // The offending name appears only inside the `#` comment, never as
        // a sample line, so every non-comment line stays well-formed.
        assert!(!page.lines().any(|l| !l.starts_with('#') && l.contains("bad name")));
        assert!(page.contains("# skipped series"));
        // Reserved `le` label key is rejected too.
        let t2 = Telemetry::new();
        t2.gauge_labeled("g", &[("le", "boom")]).set(1.0);
        assert!(matches!(t2.try_prometheus(), Err(ExpositionError::InvalidLabelName { .. })));
    }

    #[test]
    fn span_records_into_histogram() {
        let t = Telemetry::new();
        t.span("phase_seconds").finish();
        assert_eq!(t.histogram("phase_seconds", &SPAN_SECONDS_BOUNDS).count(), 1);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let t = Telemetry::off();
        t.span("phase_seconds").finish();
        assert_eq!(t.histogram("phase_seconds", &SPAN_SECONDS_BOUNDS).count(), 0);
    }
}
