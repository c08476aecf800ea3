"""Generated results report: every number straight from the store.

``repro report`` renders one self-contained markdown + HTML report, plus
``EXPERIMENTS.md``, from three machine-readable sources and nothing else:

* the **result store** — figure/table artefacts and scenario runs are
  loaded from their content-addressed entry files (the same payloads a
  warm CLI rerun replays), never recomputed and never hand-edited;
* the **run registry** (:mod:`repro.report.registry`) — the index that
  says what exists, summarised per kind;
* the committed **benchmark record** (``BENCH_batch.json``) — engine
  speedups, mega-batch/fabric/cost-model gates, serve and chaos stats.

``EXPERIMENTS.md`` holds only the claims (:mod:`repro.report.claims`) and
scenario tables, so its bytes do not depend on the rendering host.

Provenance contract: every rendered artefact carries a footnote with its
store digest, seed, driver/library code fingerprints and numpy/python
versions, all read from the entry's own key.  The renderer embeds **no
timestamps, hostnames or wall-clock values** and iterates in sorted
order, so two consecutive renders of the same store are byte-identical —
the report is a pure function of (store contents, committed bench file,
code).  Charts are hand-rolled inline SVG (no plotting dependency).

``smoke=True`` is the CI gate: it renders whatever the store holds and
reports any artefact whose provenance is incomplete (missing digest,
seed field, fingerprint or environment) in ``summary["missing_provenance"]``
— the CLI turns that into a non-zero exit.
"""

from __future__ import annotations

import html as _html_escape
import json
import re
from pathlib import Path

from repro.report.claims import (
    EXPERIMENTS_OUTLINE, MISSING, PAPER_CLAIMS, PAPER_HEADERS, SCENARIO_HEADERS,
    WAVEFORM_CLAIMS, WAVEFORM_HEADERS, claim_rows)
from repro.report.registry import RunRegistry
from repro.report.reproduce import build_plan

#: Fixed series palette (matplotlib tab10 order, for familiarity).
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")

_CSS = """
body { font-family: sans-serif; max-width: 72em; margin: 2em auto; color: #222; }
h1, h2 { border-bottom: 1px solid #ccc; padding-bottom: 0.2em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; text-align: left; }
th { background: #f0f0f0; }
p.prov { color: #666; font-size: 0.82em; }
code { background: #f5f5f5; padding: 0 0.2em; }
svg { background: #fff; border: 1px solid #ddd; }
"""


def _fmt(value) -> str:
    """Deterministic human formatting of one JSON scalar."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _esc(text) -> str:
    return _html_escape.escape(str(text), quote=False)


def _load_entry(store, digest: str):
    """(key, payload) of one entry file, or ``None`` when unreadable."""
    try:
        entry = json.loads(store.path_for(digest).read_text(encoding="utf-8"))
        return entry["key"], entry["payload"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError):
        return None


def _provenance(digest: str, key: dict, *, driver: bool) -> tuple[dict, list[str]]:
    """(provenance fields, missing-field names) of one entry key."""
    env = key.get("env") if isinstance(key.get("env"), dict) else {}
    prov = {
        "digest": digest,
        "seed": key.get("seed") if "seed" in key else "missing",
        "fingerprint": key.get("fingerprint"),
        "driver_fingerprint": key.get("driver_fingerprint"),
        "numpy": env.get("numpy"),
        "python": env.get("python"),
    }
    missing = [field for field in ("fingerprint", "numpy", "python")
               if not prov[field]]
    if "seed" not in key:
        missing.append("seed")
    if driver and not prov["driver_fingerprint"]:
        missing.append("driver_fingerprint")
    return prov, missing


#: Short-form provenance fields, in footnote and appendix order.
_PROV_FIELDS = ("digest", "seed", "driver", "library", "numpy", "python")


def _prov_cells(prov: dict) -> list[str]:
    """Short forms of :data:`_PROV_FIELDS`; ``—`` where no driver is keyed."""
    seed, driver = prov["seed"], prov.get("driver_fingerprint")
    return [f"`{str(prov['digest'])[:16]}…`",
            "deterministic" if seed is None else str(seed),
            f"`{str(driver)[:12]}…`" if driver else "—",
            f"`{str(prov['fingerprint'])[:12]}…`",
            str(prov["numpy"]), str(prov["python"])]


def _prov_line(prov: dict) -> str:
    return "provenance: " + " · ".join(
        f"{field} {cell}" for field, cell in zip(_PROV_FIELDS, _prov_cells(prov))
        if cell != "—")


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------

def _svg_chart(result) -> str:
    """Inline SVG line chart of one :class:`SweepResult` (or '')."""
    series = [s for s in result.series if len(s.x) > 0]
    if not series:
        return ""
    width, height = 640, 300
    ml, mr, mt, mb = 64, 16, 18, 52
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    def sx(x: float) -> float:
        return ml + (x - xmin) / xspan * (width - ml - mr)

    def sy(y: float) -> float:
        return height - mb - (y - ymin) / yspan * (height - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height + 16 * len(series)}" role="img">',
             f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" '
             f'height="{height - mt - mb}" fill="none" stroke="#999"/>']
    for index, s in enumerate(series):
        colour = _PALETTE[index % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.x, s.y))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{colour}" stroke-width="1.5"/>')
        legend_y = height + 12 + 16 * index
        parts.append(f'<rect x="{ml}" y="{legend_y - 9}" width="10" '
                     f'height="10" fill="{colour}"/>')
        parts.append(f'<text x="{ml + 16}" y="{legend_y}" font-size="12">'
                     f'{_esc(s.name)}</text>')
    axis = series[0]
    parts.append(f'<text x="{ml}" y="{height - mb + 16}" font-size="11">'
                 f'{_fmt(xmin)}</text>')
    parts.append(f'<text x="{width - mr}" y="{height - mb + 16}" '
                 f'font-size="11" text-anchor="end">{_fmt(xmax)}</text>')
    parts.append(f'<text x="{ml - 6}" y="{height - mb}" font-size="11" '
                 f'text-anchor="end">{_fmt(ymin)}</text>')
    parts.append(f'<text x="{ml - 6}" y="{mt + 10}" font-size="11" '
                 f'text-anchor="end">{_fmt(ymax)}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2}" y="{height - mb + 32}" '
                 f'font-size="12" text-anchor="middle">{_esc(axis.x_label)}</text>')
    parts.append(f'<text x="14" y="{(mt + height - mb) / 2}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 14 '
                 f'{(mt + height - mb) / 2})">{_esc(axis.y_label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Blocks and their two serializers
# ---------------------------------------------------------------------------
#
# Every section is built once as blocks — ("h", level, text), ("p", text),
# ("prov", text), ("list", items), ("table", headers, rows), ("svg", markup)
# — and serialized to markdown and to HTML, so the two cannot drift apart.

def _inline(text) -> str:
    """HTML-escaped text with markdown code spans turned into ``<code>``."""
    return re.sub(r"`([^`]*)`", r"<code>\1</code>", _esc(text))


def _md_row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def _html_row(tag: str, cells) -> str:
    return "<tr>" + "".join(f"<{tag}>{_inline(c)}</{tag}>" for c in cells) + "</tr>"


_MARKDOWN = {  # the chart has no markdown form
    "h": lambda level, text: "#" * level + " " + text,
    "p": lambda text: text,
    "prov": lambda text: f"_{text}_",
    "list": lambda items: "\n".join(f"- {item}" for item in items),
    "table": lambda headers, rows: "\n".join(
        [_md_row(headers), _md_row("---" for _ in headers)]
        + [_md_row(row) for row in rows]),
}

_HTML = {
    "h": lambda level, text: f"<h{level}>{_inline(text)}</h{level}>",
    "p": lambda text: f"<p>{_inline(text)}</p>",
    "prov": lambda text: f"<p class='prov'>{_inline(text)}</p>",
    "list": lambda items: "<ul>" + "".join(f"<li>{_inline(item)}</li>"
                                           for item in items) + "</ul>",
    "table": lambda headers, rows: "<table>" + _html_row("th", headers)
    + "".join(_html_row("td", row) for row in rows) + "</table>",
    "svg": lambda markup: markup,
}


def _markdown(blocks: list[tuple]) -> str:
    return "\n\n".join(_MARKDOWN[kind](*body) for kind, *body in blocks
                        if kind in _MARKDOWN) + "\n"


def _html(blocks: list[tuple]) -> str:
    return "\n".join(["<!DOCTYPE html>", "<html><head><meta charset='utf-8'>",
                      "<title>Saiyan reproduction report</title>",
                      f"<style>{_CSS}</style></head><body>"]
                     + [_HTML[kind](*body) for kind, *body in blocks]
                     + ["</body></html>"]) + "\n"


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _bench_sections(bench: dict) -> list[tuple[str, list[list[str]]]]:
    """Flatten the benchmark record into (section title, rows) tables."""
    sections = []
    for name in ("engines", "waveform", "mega_batch", "fabric", "cost_model",
                 "store", "serve", "chaos", "figures", "report"):
        payload = bench.get(name)
        if not isinstance(payload, dict):
            continue
        rows = []
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, dict):
                for sub in sorted(value):
                    if not isinstance(value[sub], (dict, list)):
                        rows.append([f"{key}.{sub}", _fmt(value[sub])])
            elif not isinstance(value, list):
                rows.append([key, _fmt(value)])
        if rows:
            sections.append((name, rows))
    return sections


def _scenario_rows(names: list[str], scenarios: dict) -> list[list[str]]:
    """One row per registered scenario; a result not in the store reads missing."""
    from repro.sim.scenario import get_scenario

    rows = []
    for name in names:
        spec = get_scenario(name)
        controllers = ", ".join(label for label, enabled in (
            ("arq", spec.arq), ("hopping", spec.hopping),
            ("rate", spec.rate), ("aloha-mac", spec.mac)) if enabled is not None)
        result = scenarios.get(name, (None, None))[0]
        measured = ([MISSING] * 4 if result is None else
                    [f"{result.prr * 100:.1f} %", str(result.collisions),
                     str(result.hops_issued), str(result.rate_changes)])
        rows.append([f"`{name}`", str(spec.num_tags), controllers or "—"]
                    + measured)
    return rows


def render_report(store, *, bench: dict | None = None,
                  smoke: bool = False) -> dict:
    """Render the report; return ``{"markdown", "html", "experiments", "summary"}``.

    ``"experiments"`` is ``EXPERIMENTS.md``: no provenance, environment or
    benchmark data, so every host computing the same payloads agrees.

    Pure function of (store contents, ``bench``, code): no timestamps, no
    recomputation, sorted iteration throughout — rendering twice from the
    same store yields byte-identical output.
    """
    from repro.sim.network_engine import ScenarioResult
    from repro.sim.metrics import SweepResult
    from repro.sim.store import environment_fingerprint, library_fingerprint

    registry = getattr(store, "registry", None)
    if registry is None:
        # Cache on the store: RunRegistry subscribes to puts, and repeated
        # renders must not pile up one listener each.
        registry = store.registry = RunRegistry(store)
    plan = build_plan(store)
    figures: dict = {}
    scenarios: dict = {}
    missing, missing_provenance = [], []
    for item in plan:
        loaded = _load_entry(store, item.digest) if item.cached else None
        if loaded is None:
            missing.append(f"{item.kind}:{item.name}")
            continue
        key, payload = loaded
        prov, absent = _provenance(item.digest, key,
                                   driver=item.kind == "figure")
        if absent:
            missing_provenance.append(
                f"{item.kind}:{item.name}: missing {', '.join(absent)}")
        try:
            if item.kind == "figure":
                figures[item.name] = (SweepResult.from_dict(payload), prov)
            else:
                scenarios[item.name] = (ScenarioResult.from_dict(payload), prov)
        except (KeyError, TypeError):
            missing.append(f"{item.kind}:{item.name}")

    results = {name: result for name, (result, _) in figures.items()}
    tables = {
        "paper": ("table", PAPER_HEADERS, claim_rows(PAPER_CLAIMS, results)),
        "waveform": ("table", WAVEFORM_HEADERS,
                     claim_rows(WAVEFORM_CLAIMS, results)),
        "scenarios": ("table", SCENARIO_HEADERS, _scenario_rows(
            [item.name for item in plan if item.kind == "scenario"], scenarios)),
    }
    experiments = [tables[block] if isinstance(block, str) else block
                   for block in EXPERIMENTS_OUTLINE]

    rows = registry.rows()
    per_kind: dict[str, list[int]] = {}
    for row in rows:
        totals = per_kind.setdefault(str(row.get("kind", "?")), [0, 0])
        totals[0] += 1
        totals[1] += int(row.get("bytes") or 0)

    env = environment_fingerprint()
    library = library_fingerprint()
    intro = ("Generated by `repro report` straight from the content-addressed "
             "result store — every number below is a store payload with its "
             "own provenance footnote (entry digest, seed, code fingerprints, "
             "numpy/python versions); nothing is hand-edited. "
             f"Rendering environment: numpy {env['numpy']}, python "
             f"{env['python']}, library fingerprint `{library[:16]}…`.")
    blocks = [
        ("h", 1, "Saiyan reproduction report"), ("p", intro),
        ("p", f"Artefacts rendered: {len(figures)} figures/tables, "
              f"{len(scenarios)} scenarios; {len(missing)} registered units "
              "absent from the store."),
        ("h", 2, "Paper vs. reproduction"), tables["paper"],
        ("h", 3, "Waveform-level ablation sweeps"), tables["waveform"],
    ]

    if figures:
        blocks.append(("h", 2, "Paper figures & tables"))
    for name, (result, prov) in figures.items():
        blocks.append(("h", 3, f"{name} — {result.title}"))
        chart = _svg_chart(result)
        if chart:
            blocks.append(("svg", chart))
        if result.series:
            blocks.append(("table", ["series", "points", "x", "y"],
                           [[s.name, str(len(s.x)), s.x_label, s.y_label]
                            for s in result.series]))
        if result.scalars:
            blocks.append(("table", ["scalar", "value"],
                           [[key, _fmt(value)]
                            for key, value in result.scalars.items()]))
        blocks.append(("prov", _prov_line(prov)))

    blocks += [("h", 2, "Network scenarios"), tables["scenarios"]]

    if bench:
        blocks += [("h", 2, "Benchmark gates (BENCH_batch.json)"),
                   ("p", f"Recorded on numpy {bench.get('numpy_version', '?')} / "
                         f"python {bench.get('python_version', '?')}.")]
        for title, rows_ in _bench_sections(bench):
            blocks += [("h", 3, title), ("table", ["metric", "value"], rows_)]

    if rows:
        blocks += [("h", 2, "Run registry"),
                   ("p", f"{len(rows)} indexed entries in `registry.jsonl`."),
                   ("table", ["kind", "entries", "bytes"],
                    [[kind, str(count), str(size)]
                     for kind, (count, size) in sorted(per_kind.items())])]

    appendix = list(figures.items()) + list(scenarios.items())
    if appendix:
        blocks += [("h", 2, "Provenance appendix"),
                   ("table", ["artefact", *_PROV_FIELDS],
                    [[name, *_prov_cells(prov)] for name, (_, prov) in appendix])]

    if missing:
        blocks += [("h", 2, "Missing from the store"),
                   ("p", "Run `repro reproduce` to compute these:"),
                   ("list", [f"`{name}`" for name in missing])]

    summary = {
        "artefacts": len(figures) + len(scenarios),
        "figures": len(figures),
        "scenarios": len(scenarios),
        "missing": missing,
        "missing_provenance": missing_provenance,
        "registry_entries": len(rows),
        "smoke": smoke,
    }
    return {"markdown": _markdown(blocks), "html": _html(blocks),
            "experiments": _markdown(experiments), "summary": summary}


def load_bench(bench_path=None) -> dict | None:
    """The benchmark record to render, or ``None`` when unavailable.

    ``bench_path`` defaults to the committed ``BENCH_batch.json``; a
    missing or unreadable file degrades to ``None`` (the report simply
    omits the benchmark section).
    """
    if bench_path is None:
        bench_path = Path(__file__).resolve().parents[3] / "BENCH_batch.json"
    try:
        payload = json.loads(Path(bench_path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def write_report(store, output_dir, *, bench_path=None,
                 smoke: bool = False) -> dict:
    """Render and write ``report.md``, ``report.html`` and ``EXPERIMENTS.md``.

    Returns the summary, whose ``paths`` maps ``md``/``html``/``experiments``
    to the written files.  ``bench_path`` defaults to the committed
    ``BENCH_batch.json`` when it exists; pass an explicit path to render
    another benchmark record, or a missing path to omit the benchmark
    section.
    """
    rendered = render_report(store, bench=load_bench(bench_path), smoke=smoke)
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, filename, text in (
            ("md", "report.md", rendered["markdown"]),
            ("html", "report.html", rendered["html"]),
            ("experiments", "EXPERIMENTS.md", rendered["experiments"])):
        path = output_dir / filename
        path.write_text(text, encoding="utf-8")
        paths[key] = str(path)
    rendered["summary"]["paths"] = paths
    return rendered["summary"]


__all__ = ["load_bench", "render_report", "write_report"]
