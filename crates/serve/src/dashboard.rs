//! The live dashboard: `GET /dashboard` (one self-contained HTML page) and
//! `GET /dashboard/data` (the `wec-dashboard-data-v2` JSON it refreshes
//! from).
//!
//! The page carries zero external dependencies — no CDN, no framework, no
//! webfont — so it renders from a cold server on an air-gapped box.  All
//! charts are inline SVG drawn by ~100 lines of hand-written script from
//! the data document: sparklines of queue depth, jobs/s, dedup hit rate,
//! kcycles/s and (under `--speculate`) spec hit rate, per-endpoint latency
//! histogram strips straight off the log2 buckets, and a drill-down table
//! of recent jobs linking to the existing `/jobs/<id>/events` stream.
//! The daemon keeps no history: the data document carries cumulative
//! counters, and the page turns two successive polls into one point of
//! each rate series (differences over the `now_ms` difference), keeping
//! the last `HISTORY` points.  History starts when the page opens.
//! Colors follow the repo's chart palette (light and dark via
//! `prefers-color-scheme`); text always wears ink tokens, never series
//! colors.

use std::fmt::Write as _;

use wec_telemetry::json::escape_into;

use crate::state::{render_stats_json, ServerState};

/// The `wec-dashboard-data-v2` document: one consistent stats snapshot
/// plus its cumulative `sim_cycles` (which `/stats` does not carry),
/// per-endpoint latency digests, and slim rows for the most recent jobs
/// (full records carry ~1300 metrics each; the drill-down links fetch
/// those on demand).
pub fn dashboard_data_json(state: &ServerState) -> String {
    let snap = state.snapshot();
    let mut out = String::with_capacity(8 * 1024);
    let _ = write!(
        out,
        "{{\"schema\":\"wec-dashboard-data-v2\",\"now_ms\":{},\"sim_cycles\":{}",
        snap.uptime_ms, snap.sim_cycles
    );
    out.push_str(",\"stats\":");
    out.push_str(&render_stats_json(&snap, state.backend_id()));
    out.push_str(",\"http\":[");
    for (i, l) in state.metrics.endpoint_latencies().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"endpoint\":\"{}\",\"count\":{},\"mean_us\":{:.1},\"p50_us\":{},\"p99_us\":{},\"max_us\":{},\"buckets\":[",
            l.endpoint, l.count, l.mean_us, l.p50_us, l.p99_us, l.max_us
        );
        for (j, (floor, n)) in l.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{floor},{n}]");
        }
        out.push_str("]}");
    }
    out.push_str("],\"jobs\":[");
    for (i, r) in state.recent_jobs(50).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"id\":{},\"kind\":\"{}\",\"bench\":", r.id, r.kind);
        escape_into(&mut out, &r.bench);
        out.push_str(",\"cfg\":");
        escape_into(&mut out, &r.cfg);
        let _ = write!(
            out,
            ",\"state\":\"{}\",\"source\":\"{}\",\"submissions\":{},\"worker\":{},\"dur_ms\":{},\"sim_cycles\":{},\"has_attr\":{}",
            r.state.name(),
            r.source,
            r.submissions,
            r.worker,
            r.dur_ms,
            r.sim_cycles,
            r.attr.is_some()
        );
        if r.speculative {
            out.push_str(",\"speculative\":true");
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// The dashboard page, byte-for-byte.  Everything inline: styles, script,
/// SVG — served with `Content-Type: text/html`.
pub const DASHBOARD_HTML: &str = r##"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>wec-serve dashboard</title>
<style>
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --ink-1: #0b0b0b;
  --ink-2: #52514e;
  --ink-muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --good: #0ca30c;
  --critical: #d03b3b;
  --ring: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --ink-1: #ffffff;
    --ink-2: #c3c2b7;
    --ink-muted: #898781;
    --grid: #2c2c2a;
    --baseline: #383835;
    --series-1: #3987e5;
    --ring: rgba(255,255,255,0.10);
  }
}
* { box-sizing: border-box; margin: 0; }
body {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink-1);
  padding: 16px; font-size: 14px;
}
h1 { font-size: 18px; font-weight: 600; }
header { display: flex; align-items: baseline; gap: 12px; margin-bottom: 14px; flex-wrap: wrap; }
#conn { color: var(--ink-muted); font-size: 12px; }
#drain { font-size: 12px; font-weight: 600; display: none; color: var(--critical); }
.cards { display: grid; grid-template-columns: repeat(auto-fill, minmax(150px, 1fr)); gap: 10px; margin-bottom: 14px; }
.card, .panel {
  background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 6px; padding: 10px 12px;
}
.card .label { color: var(--ink-2); font-size: 12px; }
.card .value { font-size: 22px; margin-top: 2px; }
.card .sub { color: var(--ink-muted); font-size: 11px; margin-top: 2px; }
.sparks { display: grid; grid-template-columns: repeat(auto-fill, minmax(260px, 1fr)); gap: 10px; margin-bottom: 14px; }
.panel h2 { font-size: 13px; font-weight: 600; color: var(--ink-2); margin-bottom: 6px; }
.panel .now { float: right; color: var(--ink-1); font-weight: 600; font-size: 13px; }
.panel svg { display: block; width: 100%; }
table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
th { text-align: left; color: var(--ink-2); font-size: 12px; font-weight: 600;
     border-bottom: 1px solid var(--grid); padding: 4px 8px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 8px 4px 0; font-size: 13px; }
td.num, th.num { text-align: right; }
a { color: var(--series-1); text-decoration: none; }
a:hover { text-decoration: underline; }
.state-done { color: var(--good); font-weight: 600; }
.state-failed { color: var(--critical); font-weight: 600; }
.state-running, .state-queued { color: var(--ink-2); }
.state-cancelled { color: var(--ink-muted); }
section { margin-bottom: 14px; }
.empty { color: var(--ink-muted); font-size: 12px; padding: 8px 0; }
</style>
</head>
<body>
<header>
  <h1>wec-serve</h1>
  <span id="uptime" class="card-sub" style="color: var(--ink-2)"></span>
  <span id="drain">draining — not accepting jobs</span>
  <span id="conn">connecting…</span>
</header>

<div class="cards" id="cards"></div>

<div class="sparks">
  <div class="panel"><h2>Queue depth <span class="now" id="now-queue"></span></h2><svg id="spark-queue" height="48"></svg></div>
  <div class="panel"><h2>Jobs / s <span class="now" id="now-jps"></span></h2><svg id="spark-jps" height="48"></svg></div>
  <div class="panel"><h2>Dedup hit rate <span class="now" id="now-dedup"></span></h2><svg id="spark-dedup" height="48"></svg></div>
  <div class="panel"><h2>Sim kcycles / s <span class="now" id="now-kcps"></span></h2><svg id="spark-kcps" height="48"></svg></div>
  <div class="panel" id="spec-spark-panel" style="display:none"><h2>Spec hit rate <span class="now" id="now-spec"></span></h2><svg id="spark-spec" height="48"></svg></div>
</div>

<section class="panel">
  <h2>HTTP latency by endpoint (log2 buckets, µs)</h2>
  <table id="http-table">
    <thead><tr><th>endpoint</th><th class="num">requests</th><th class="num">mean</th>
      <th class="num">p50</th><th class="num">p99</th><th class="num">max</th><th>distribution</th></tr></thead>
    <tbody></tbody>
  </table>
  <div class="empty" id="http-empty">No requests observed yet.</div>
</section>

<section class="panel">
  <h2>Recent jobs</h2>
  <table id="jobs-table">
    <thead><tr><th>id</th><th>kind</th><th>bench</th><th>cfg</th><th>state</th><th>source</th>
      <th class="num">subs</th><th class="num">dur ms</th><th class="num">sim cycles</th><th>events</th><th>attr</th></tr></thead>
    <tbody></tbody>
  </table>
  <div class="empty" id="jobs-empty">No jobs submitted yet.</div>
</section>

<section class="panel" id="attr-panel" style="display:none">
  <h2>Speculation attribution <span class="now" id="attr-title"></span></h2>
  <div id="attr-summary" class="empty"></div>
  <table id="attr-pcs">
    <thead><tr><th>wrong-path PC</th><th class="num">useful</th><th class="num">wasted</th>
      <th class="num">median fill→hit cycles</th><th class="num">pollution bytes</th></tr></thead>
    <tbody></tbody>
  </table>
  <h2 style="margin-top:10px">Per-set pressure (L1 sets, left→right)</h2>
  <div id="attr-heat"></div>
</section>

<script>
"use strict";
const REFRESH_MS = 1000;
// Points kept per sparkline: two minutes at one poll a second.
const HISTORY = 120;
const SVG = "http://www.w3.org/2000/svg";
const series = { queue: [], jps: [], dedup: [], kcps: [], spec: [] };
let prev = null;

function fmt(v, digits) {
  if (v >= 1000000) return (v / 1000000).toFixed(1) + "M";
  if (v >= 10000) return (v / 1000).toFixed(1) + "k";
  return Number(v).toFixed(digits === undefined ? 0 : digits);
}

function el(tag, text, cls) {
  const e = document.createElement(tag);
  if (text !== undefined) e.textContent = text;
  if (cls) e.className = cls;
  return e;
}

function card(label, value, sub) {
  const c = el("div", undefined, "card");
  c.appendChild(el("div", label, "label"));
  c.appendChild(el("div", value, "value"));
  if (sub) c.appendChild(el("div", sub, "sub"));
  return c;
}

// One single-series sparkline: 2px line, hairline mid-grid, direct label
// of the latest value beside the title (never a number on every point).
function sparkline(svg, values) {
  const w = svg.clientWidth || 260, h = 48, pad = 3;
  svg.setAttribute("viewBox", "0 0 " + w + " " + h);
  while (svg.firstChild) svg.removeChild(svg.firstChild);
  const grid = document.createElementNS(SVG, "line");
  grid.setAttribute("x1", 0); grid.setAttribute("x2", w);
  grid.setAttribute("y1", h / 2); grid.setAttribute("y2", h / 2);
  grid.setAttribute("stroke", getComputedStyle(document.documentElement).getPropertyValue("--grid"));
  grid.setAttribute("stroke-width", 1);
  svg.appendChild(grid);
  if (values.length < 2) return;
  const max = Math.max(...values, 1e-9);
  const pts = values.map((v, i) => {
    const x = pad + (i / (values.length - 1)) * (w - 2 * pad);
    const y = h - pad - (v / max) * (h - 2 * pad);
    return x.toFixed(1) + "," + y.toFixed(1);
  });
  const line = document.createElementNS(SVG, "polyline");
  line.setAttribute("points", pts.join(" "));
  line.setAttribute("fill", "none");
  line.setAttribute("stroke", getComputedStyle(document.documentElement).getPropertyValue("--series-1"));
  line.setAttribute("stroke-width", 2);
  line.setAttribute("stroke-linejoin", "round");
  svg.appendChild(line);
}

// A latency strip: one thin bar per occupied log2 bucket, height scaled to
// the endpoint's own modal bucket, 2px surface gaps between bars.
function bucketStrip(buckets) {
  const h = 22, bw = 7, gap = 2;
  const svg = document.createElementNS(SVG, "svg");
  const w = Math.max(buckets.length * (bw + gap), 1);
  svg.setAttribute("viewBox", "0 0 " + w + " " + h);
  svg.setAttribute("width", w); svg.setAttribute("height", h);
  const max = Math.max(...buckets.map(b => b[1]), 1);
  const color = getComputedStyle(document.documentElement).getPropertyValue("--series-1");
  buckets.forEach((b, i) => {
    const bh = Math.max(2, Math.round((b[1] / max) * (h - 2)));
    const r = document.createElementNS(SVG, "rect");
    r.setAttribute("x", i * (bw + gap)); r.setAttribute("y", h - bh);
    r.setAttribute("width", bw); r.setAttribute("height", bh);
    r.setAttribute("rx", 1);
    r.setAttribute("fill", color);
    const t = document.createElementNS(SVG, "title");
    t.textContent = "≥ " + b[0] + " µs: " + b[1] + " requests";
    r.appendChild(t);
    svg.appendChild(r);
  });
  return svg;
}

function push(key, v) {
  const a = series[key];
  a.push(v);
  if (a.length > HISTORY) a.shift();
}

// One point per series from this poll and the previous one: rates are
// counter differences over the now_ms difference, shares are over the
// interval's submissions (0 when there were none).
function sample(d) {
  const s = d.stats;
  push("queue", s.queue.depth);
  if (prev && d.now_ms > prev.now_ms) {
    const p = prev.stats, dt_ms = d.now_ms - prev.now_ms;
    const submitted = s.jobs.submitted - p.jobs.submitted;
    const share = n => submitted > 0 ? Math.min(Math.max(n, 0) / submitted, 1) : 0;
    push("jps", Math.max(s.jobs.completed - p.jobs.completed, 0) * 1000 / dt_ms);
    push("dedup", share(s.jobs.deduped - p.jobs.deduped + s.cache.mem_hits - p.cache.mem_hits));
    // Cycles per millisecond are kilocycles per second.
    push("kcps", Math.max(d.sim_cycles - prev.sim_cycles, 0) / dt_ms);
    if (s.spec && p.spec) push("spec", share(s.spec.hit - p.spec.hit));
  }
  prev = d;
}

function render(d) {
  sample(d);
  const s = d.stats;
  document.getElementById("uptime").textContent =
    "up " + (s.uptime_ms / 1000).toFixed(0) + "s · " +
    s.busy_workers + "/" + s.workers + " workers busy";
  document.getElementById("drain").style.display = s.draining ? "inline" : "none";

  const cards = document.getElementById("cards");
  cards.replaceChildren(
    card("completed", fmt(s.jobs.completed),
         "cold " + s.cache.cold + " · disk " + s.cache.disk_hits + " · mem " + s.cache.mem_hits),
    card("submitted", fmt(s.jobs.submitted), "deduped " + s.jobs.deduped),
    card("queue", s.queue.depth + " / " + s.queue.cap, "rejected " + s.queue.rejected),
    card("failed", fmt(s.jobs.failed)),
    card("jobs / s", s.throughput.jobs_per_sec.toFixed(1),
         "utilization " + (s.throughput.utilization * 100).toFixed(0) + "%"));
  if (s.spec) {
    cards.appendChild(card("spec hits", fmt(s.spec.hit),
      "started " + s.spec.started + " · waste " + s.spec.waste +
      " · pending " + s.spec.pending));
  }

  const last = (a, f) => a.length ? f(a[a.length - 1]) : "";
  const pct = v => (v * 100).toFixed(0) + "%";
  for (const [key, f] of [["queue", v => fmt(v)], ["jps", v => v.toFixed(1)],
                          ["dedup", pct], ["kcps", v => fmt(v)], ["spec", pct]]) {
    sparkline(document.getElementById("spark-" + key), series[key]);
    document.getElementById("now-" + key).textContent = last(series[key], f);
  }
  if (s.spec) document.getElementById("spec-spark-panel").style.display = "block";

  const htbody = document.querySelector("#http-table tbody");
  htbody.replaceChildren(...d.http.map(r => {
    const tr = el("tr");
    tr.appendChild(el("td", r.endpoint));
    tr.appendChild(el("td", fmt(r.count), "num"));
    tr.appendChild(el("td", fmt(r.mean_us, 1), "num"));
    tr.appendChild(el("td", fmt(r.p50_us), "num"));
    tr.appendChild(el("td", fmt(r.p99_us), "num"));
    tr.appendChild(el("td", fmt(r.max_us), "num"));
    const td = el("td");
    td.appendChild(bucketStrip(r.buckets));
    tr.appendChild(td);
    return tr;
  }));
  document.getElementById("http-empty").style.display = d.http.length ? "none" : "block";

  const jtbody = document.querySelector("#jobs-table tbody");
  jtbody.replaceChildren(...d.jobs.map(j => {
    const tr = el("tr");
    const idtd = el("td");
    const a = el("a", "#" + j.id);
    a.href = "/jobs/" + j.id;
    idtd.appendChild(a);
    tr.appendChild(idtd);
    tr.appendChild(el("td", j.kind));
    tr.appendChild(el("td", j.bench));
    tr.appendChild(el("td", j.cfg));
    tr.appendChild(el("td", j.state, "state-" + j.state));
    tr.appendChild(el("td", j.speculative ? j.source + " ·spec" : j.source));
    tr.appendChild(el("td", String(j.submissions), "num"));
    tr.appendChild(el("td", fmt(j.dur_ms), "num"));
    tr.appendChild(el("td", fmt(j.sim_cycles), "num"));
    const etd = el("td");
    const ea = el("a", "events");
    ea.href = "/jobs/" + j.id + "/events";
    etd.appendChild(ea);
    tr.appendChild(etd);
    const atd = el("td");
    if (j.has_attr) {
      const aa = el("a", "ledger");
      aa.href = "#attr-panel";
      aa.addEventListener("click", () => showAttr(j.id));
      atd.appendChild(aa);
    }
    tr.appendChild(atd);
    return tr;
  }));
  document.getElementById("jobs-empty").style.display = d.jobs.length ? "none" : "block";
}

// One per-set heat strip: a 1×N row of cells, intensity scaled to the
// array's own maximum (each counter gets its own scale; absolute values
// live in the tooltips, never as a number per cell).
function heatStrip(label, values) {
  const wrap = el("div");
  wrap.appendChild(el("div", label, "label"));
  const h = 14, max = Math.max(...values, 1);
  const svg = document.createElementNS(SVG, "svg");
  svg.setAttribute("viewBox", "0 0 " + values.length + " 1");
  svg.setAttribute("preserveAspectRatio", "none");
  svg.setAttribute("width", "100%"); svg.setAttribute("height", h);
  svg.style.display = "block"; svg.style.marginBottom = "4px";
  const color = getComputedStyle(document.documentElement).getPropertyValue("--series-1").trim();
  values.forEach((v, i) => {
    const r = document.createElementNS(SVG, "rect");
    r.setAttribute("x", i); r.setAttribute("y", 0);
    r.setAttribute("width", 1); r.setAttribute("height", 1);
    r.setAttribute("fill", color);
    r.setAttribute("fill-opacity", (0.08 + 0.92 * (v / max)).toFixed(3));
    const t = document.createElementNS(SVG, "title");
    t.textContent = label + " set " + i + ": " + v;
    r.appendChild(t);
    svg.appendChild(r);
  });
  wrap.appendChild(svg);
  return wrap;
}

async function showAttr(id) {
  try {
    const res = await fetch("/jobs/" + id + "/attribution", { cache: "no-store" });
    if (!res.ok) throw new Error("HTTP " + res.status);
    const a = await res.json();
    document.getElementById("attr-panel").style.display = "block";
    document.getElementById("attr-title").textContent = "job #" + id;
    const t = a.totals;
    document.getElementById("attr-summary").textContent =
      "fills " + t.wec_fills + " · useful " + t.useful + " · wasted " + t.wasted +
      " · victim rescued " + t.victim_rescued + " · still resident " + t.still_resident;
    const tbody = document.querySelector("#attr-pcs tbody");
    tbody.replaceChildren(...a.top_pcs.map(p => {
      const tr = el("tr");
      tr.appendChild(el("td", "0x" + p.pc.toString(16).padStart(8, "0")));
      tr.appendChild(el("td", fmt(p.useful), "num"));
      tr.appendChild(el("td", fmt(p.wasted), "num"));
      tr.appendChild(el("td", fmt(p.median_timeliness), "num"));
      tr.appendChild(el("td", fmt(p.pollution_bytes), "num"));
      return tr;
    }));
    const heat = document.getElementById("attr-heat");
    heat.replaceChildren(
      heatStrip("L1 demand accesses", a.sets.l1_accesses),
      heatStrip("L1 demand misses", a.sets.l1_misses),
      heatStrip("speculative side fills", a.sets.side_fills),
      heatStrip("side hits", a.sets.side_hits),
      heatStrip("victim transfers", a.sets.victim_transfers));
  } catch (e) {
    document.getElementById("attr-panel").style.display = "block";
    document.getElementById("attr-summary").textContent = "failed to load ledger: " + e.message;
  }
}

async function tick() {
  try {
    const res = await fetch("/dashboard/data", { cache: "no-store" });
    if (!res.ok) throw new Error("HTTP " + res.status);
    render(await res.json());
    document.getElementById("conn").textContent = "live · refreshes every " + (REFRESH_MS / 1000) + "s";
  } catch (e) {
    document.getElementById("conn").textContent = "disconnected (" + e.message + ") — retrying";
  } finally {
    setTimeout(tick, REFRESH_MS);
  }
}
tick();
</script>
</body>
</html>
"##;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ServeConfig, ServerState};
    use wec_telemetry::schema;

    #[test]
    fn page_is_self_contained() {
        for forbidden in ["http://", "https://", "src=\"/", "@import", "cdn"] {
            // The SVG namespace constant is the one legitimate URL.
            let hits = DASHBOARD_HTML.matches(forbidden).count();
            if forbidden == "http://" {
                assert_eq!(hits, 1, "only the SVG xmlns may be a URL");
            } else {
                assert_eq!(hits, 0, "external reference {forbidden:?} in page");
            }
        }
        assert!(DASHBOARD_HTML.contains("/dashboard/data"));
        assert!(DASHBOARD_HTML.contains("prefers-color-scheme"));
        // The speculation sparkline ships with the page but stays hidden
        // until the stats document carries a spec block.
        assert!(DASHBOARD_HTML.contains("spec-spark-panel"));
        assert!(DASHBOARD_HTML.contains("if (s.spec)"));
    }

    #[test]
    fn data_document_is_valid_json_with_embedded_stats() {
        let s = ServerState::new(ServeConfig {
            workers: 2,
            queue_cap: 4,
            store: None,
            log_dir: None,
            ..ServeConfig::default()
        })
        .unwrap();
        s.metrics
            .observe_request(crate::metrics::endpoint_index("/stats"), 200, 42);
        s.submit(crate::JobSpec::parse("{\"bench\": \"164.gzip\"}").unwrap())
            .unwrap();
        let doc = dashboard_data_json(&s);
        assert_eq!(schema::validate_dashboard_data_json(&doc), Ok(1), "{doc}");
        let v = wec_telemetry::json::parse(&doc).unwrap();
        assert_eq!(v.get("sim_cycles").unwrap().as_u64(), Some(0));
        let stats = v.get("stats").unwrap();
        assert_eq!(
            stats.get("schema").unwrap().as_str(),
            Some("wec-serve-stats-v1")
        );
        assert_eq!(v.get("http").unwrap().as_array().unwrap().len(), 1);
    }
}
