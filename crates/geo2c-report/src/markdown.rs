//! Rendering [`ExperimentResult`]s for humans: the markdown tables of
//! `EXPERIMENTS.md`.
//!
//! Two layouts cover every experiment in the workspace:
//!
//! * **flat** — one row per cell; columns are the cell coordinates, the
//!   scalar metrics, and (if present) the distribution in the paper's
//!   `value: percent` style.
//! * **pivot** — the paper's own layout for Tables 1–3: one row per
//!   value of a *row coordinate* (`n`), one column per value of a
//!   *column coordinate* (`d`, or the tie-break strategy), each cell a
//!   small max-load distribution.
//!
//! All output is a pure function of the result (no clocks, no locale),
//! which is what lets `tables.sh` regenerate `EXPERIMENTS.md`
//! byte-identically.

use crate::json::Json;
use crate::spec::{Cell, ExperimentResult};
use geo2c_util::hist::Counter;
use std::fmt::Write as _;

/// Formats a JSON scalar for table cells: integers plainly, floats with
/// up to four decimals (scientific notation below `1e-3`), everything
/// else via compact JSON.
#[must_use]
pub fn fmt_json(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(x) => fmt_num(*x),
        Json::Null => "-".to_string(),
        other => other.render(),
    }
}

fn fmt_num(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
        return format!("{}", x as i64);
    }
    if x.abs() < 1e-3 {
        return format!("{x:.3e}");
    }
    let mut s = format!("{x:.4}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

/// Formats a coordinate value; large powers of two render as `2^k`
/// (the paper's row labels).
#[must_use]
pub fn fmt_coord(v: &Json) -> String {
    if let Some(x) = v.as_u64() {
        if x >= 64 && x.is_power_of_two() {
            return format!("2^{}", x.trailing_zeros());
        }
    }
    fmt_json(v)
}

/// The paper-style distribution text, one `value: percent` pair per line.
fn dist_lines(dist: &Counter) -> Vec<String> {
    let total = dist.total().max(1);
    dist.iter()
        .map(|(v, c)| format!("{v}: {:.1}%", 100.0 * c as f64 / total as f64))
        .collect()
}

/// A single-line distribution: the full paper style when the support is
/// small, a `min..max (mode m)` range when it is wide (clustered d = 1
/// runs can span dozens of values — a row-width, not information, limit).
fn dist_summary(dist: &Counter) -> String {
    const MAX_INLINE_SUPPORT: usize = 8;
    if dist.iter().count() <= MAX_INLINE_SUPPORT {
        dist_lines(dist).join(" · ")
    } else {
        format!(
            "{}..{} (mode {})",
            dist.min().unwrap_or(0),
            dist.max().unwrap_or(0),
            dist.mode().unwrap_or(0)
        )
    }
}

/// The columns of a flat layout: coordinate keys, then metric keys (in
/// first-appearance order), then the distribution if any cell has one.
fn flat_columns(result: &ExperimentResult) -> (Vec<String>, bool) {
    let mut keys: Vec<String> = Vec::new();
    let mut has_dist = false;
    for cell in &result.cells {
        for (k, _) in cell.coords.iter().chain(&cell.metrics) {
            if !keys.contains(k) {
                keys.push(k.clone());
            }
        }
        has_dist |= cell.distribution.is_some();
    }
    (keys, has_dist)
}

fn flat_row(cell: &Cell, keys: &[String], has_dist: bool) -> Vec<String> {
    let lookup = |key: &String| {
        cell.coords
            .iter()
            .chain(&cell.metrics)
            .find(|(k, _)| k == key)
            .map_or_else(String::new, |(k, v)| {
                if k == "n" {
                    fmt_coord(v)
                } else {
                    fmt_json(v)
                }
            })
    };
    let mut row: Vec<String> = keys.iter().map(lookup).collect();
    if has_dist {
        row.push(match &cell.distribution {
            Some(d) => dist_summary(d),
            None => "-".to_string(),
        });
    }
    row
}

/// The distinct values of a coordinate, in first-appearance order.
fn coord_values(result: &ExperimentResult, key: &str) -> Vec<Json> {
    let mut values = Vec::new();
    for cell in &result.cells {
        if let Some((_, v)) = cell.coords.iter().find(|(k, _)| k == key) {
            if !values.contains(v) {
                values.push(v.clone());
            }
        }
    }
    values
}

fn find_cell<'a>(
    result: &'a ExperimentResult,
    row_key: &str,
    row: &Json,
    col_key: &str,
    col: &Json,
) -> Option<&'a Cell> {
    result.cells.iter().find(|cell| {
        cell.coords.iter().any(|(k, v)| k == row_key && v == row)
            && cell.coords.iter().any(|(k, v)| k == col_key && v == col)
    })
}

/// A pivot cell: its distribution lines and mean, `<br>`-separated.
fn pivot_cell_text(cell: Option<&Cell>) -> String {
    match cell.and_then(|c| c.distribution.as_ref().map(|d| (c, d))) {
        Some((cell, dist)) => {
            let mut lines = dist_lines(dist);
            let stats = cell.dist_stats();
            lines.push(format!("(mean {:.2})", stats.mean()));
            lines.join("<br>")
        }
        None => "-".to_string(),
    }
}

fn markdown_escape(s: &str) -> String {
    s.replace('|', "\\|")
}

fn markdown_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {} |",
        header
            .iter()
            .map(|h| markdown_escape(h))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let _ = writeln!(out, "|{}|", vec!["---"; header.len()].join("|"));
    for row in rows {
        let _ = writeln!(
            out,
            "| {} |",
            row.iter()
                .map(|c| markdown_escape(c))
                .collect::<Vec<_>>()
                .join(" | ")
        );
    }
    out
}

fn spec_preamble(result: &ExperimentResult) -> String {
    let spec = &result.spec;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "*Reproduces:* {} · *trials per cell:* {} · *seed:* {}",
        spec.paper_ref, spec.trials, spec.seed
    );
    if !spec.params.is_empty() {
        let params: Vec<String> = spec
            .params
            .iter()
            .map(|(k, v)| format!("`{k} = {}`", v.render()))
            .collect();
        let _ = writeln!(out, "\nParameters: {}.", params.join(", "));
    }
    out.push('\n');
    out
}

/// Renders one experiment as a flat markdown section (`##` heading).
#[must_use]
pub fn render_markdown(result: &ExperimentResult) -> String {
    let (keys, has_dist) = flat_columns(result);
    let mut header = keys.clone();
    if has_dist {
        // Generic label: flat tables carry max-load distributions for
        // the paper tables but per-server load profiles for `serving`.
        header.push("distribution".to_string());
    }
    let rows: Vec<Vec<String>> = result
        .cells
        .iter()
        .map(|cell| flat_row(cell, &keys, has_dist))
        .collect();
    format!(
        "## {}\n\n{}{}",
        result.spec.title,
        spec_preamble(result),
        markdown_table(&header, &rows)
    )
}

/// Renders one experiment as a paper-layout markdown section: rows by
/// `row_key`, one column per `col_key` value, `<br>`-separated
/// distribution lines inside each cell.
#[must_use]
pub fn render_markdown_pivot(result: &ExperimentResult, row_key: &str, col_key: &str) -> String {
    let rows = coord_values(result, row_key);
    let cols = coord_values(result, col_key);
    let header: Vec<String> = std::iter::once(row_key.to_string())
        .chain(cols.iter().map(|c| format!("{col_key} = {}", fmt_json(c))))
        .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            std::iter::once(fmt_coord(row))
                .chain(
                    cols.iter()
                        .map(|col| pivot_cell_text(find_cell(result, row_key, row, col_key, col))),
                )
                .collect()
        })
        .collect();
    format!(
        "## {}\n\n{}{}",
        result.spec.title,
        spec_preamble(result),
        markdown_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn sample() -> ExperimentResult {
        let mut dist = Counter::new();
        dist.add_n(4, 881);
        dist.add_n(5, 119);
        let spec = ExperimentSpec::new("table1", "Table 1 sample")
            .paper_ref("Table 1")
            .trials(1000)
            .param("space", Json::str("ring"));
        let mut result = ExperimentResult::new(spec);
        result.push(
            Cell::new()
                .coord("n", Json::from_usize(4096))
                .coord("d", Json::from_usize(2))
                .dist(dist)
                .metric("mean", Json::num(4.119)),
        );
        result.push(
            Cell::new()
                .coord("n", Json::from_usize(4096))
                .coord("d", Json::from_usize(1))
                .metric("mean", Json::num(7.0)),
        );
        result
    }

    #[test]
    fn pivot_layouts_place_cells_by_coords() {
        let md = render_markdown_pivot(&sample(), "n", "d");
        assert!(md.contains("| n | d = 2 | d = 1 |"), "{md}");
        assert!(md.contains("4: 88.1%<br>5: 11.9%<br>(mean 4.12)"), "{md}");
        // The d=1 cell has no distribution.
        assert!(md.contains("| - |"), "{md}");
    }

    #[test]
    fn flat_markdown_is_a_table() {
        let md = render_markdown(&sample());
        assert!(md.starts_with("## Table 1 sample"));
        assert!(md.contains("| n | d | mean | distribution |"), "{md}");
        assert!(md.contains("`space = \"ring\"`"));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_num(4.0), "4");
        assert_eq!(fmt_num(4.1), "4.1");
        assert_eq!(fmt_num(4.119), "4.119");
        assert_eq!(fmt_num(0.30000000000000004), "0.3");
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(1e-7), "1.000e-7");
        assert_eq!(fmt_num(-2.5), "-2.5");
        assert_eq!(fmt_coord(&Json::from_usize(65536)), "2^16");
        assert_eq!(fmt_coord(&Json::from_usize(48)), "48");
        assert_eq!(fmt_json(&Json::str("ring")), "ring");
        assert_eq!(fmt_json(&Json::Null), "-");
    }

    #[test]
    fn wide_distributions_collapse_to_a_range_in_flat_rows() {
        let mut dist = Counter::new();
        for v in 5..25u64 {
            dist.add_n(v, if v == 9 { 10 } else { 1 });
        }
        let mut result = ExperimentResult::new(ExperimentSpec::new("wide", "Wide").trials(29));
        result.push(Cell::new().coord("q", Json::num(0.99)).dist(dist));
        let md = render_markdown(&result);
        assert!(md.contains("| 0.99 | 5..24 (mode 9) |"), "{md}");
        assert!(!md.contains("5: "), "{md}");
    }

    #[test]
    fn markdown_pipes_are_escaped() {
        let table = markdown_table(&["a|b".to_string()], &[vec!["c|d".to_string()]]);
        assert!(table.contains("a\\|b"));
        assert!(table.contains("c\\|d"));
    }
}
