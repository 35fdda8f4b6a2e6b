//! Plain-text rendering of experiment results.

use std::time::Duration;

use crate::harness::{AblationArm, Measurement, System, Table1};

fn fmt_dur(d: Duration) -> String {
    let us = d.as_micros();
    if us == 0 {
        format!("{} ns", d.as_nanos())
    } else if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.2} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3} s", us as f64 / 1_000_000.0)
    }
}

/// Render Table 1: term cardinalities and rows affected.
pub fn render_table1(t: &Table1) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 1. Terms in view V3 and rows affected when inserting {} lineitem rows\n",
        t.batch
    ));
    out.push_str(&format!(
        "{:<8} {:>14} {:>14}\n",
        "Term", "Cardinality", "Rows affected"
    ));
    // Sort wide-to-narrow like the paper (COLP, COL, C, P).
    let mut rows = t.rows.clone();
    rows.sort_by_key(|(l, _, _)| std::cmp::Reverse(l.len()));
    for (label, card, affected) in rows {
        out.push_str(&format!("{label:<8} {card:>14} {affected:>14}\n"));
    }
    out
}

/// Render a Figure 5 panel (insertion or deletion series).
pub fn render_fig5(title: &str, measurements: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    let mut batches: Vec<usize> = measurements.iter().map(|m| m.batch).collect();
    batches.sort_unstable();
    batches.dedup();

    out.push_str(&format!("{:<22}", "LINEITEM rows"));
    for b in &batches {
        out.push_str(&format!("{b:>14}"));
    }
    out.push('\n');
    for system in System::ALL {
        out.push_str(&format!("{:<22}", system.label()));
        for &b in &batches {
            let m = measurements
                .iter()
                .find(|m| m.system == system && m.batch == b);
            match m {
                Some(m) => out.push_str(&format!("{:>14}", fmt_dur(m.time))),
                None => out.push_str(&format!("{:>14}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Render the delta-row counts behind a Figure 5 run (diagnostics).
pub fn render_rows(measurements: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>10} {:>14} {:>14}\n",
        "System", "batch", "ΔV^D rows", "ΔV^I rows"
    ));
    for m in measurements {
        out.push_str(&format!(
            "{:<22} {:>10} {:>14} {:>14}\n",
            m.system.label(),
            m.batch,
            m.report.primary_rows,
            m.report.secondary_rows
        ));
    }
    out
}

/// Render the A1–A4 ablation arms and the cost of V3's static analysis.
pub fn render_ablations(arms: &[AblationArm], cost: &[(&str, Duration)], reps: usize) -> String {
    let mut out = format!("Ablations A1–A4 on V3 (DESIGN.md §4), median of {reps} runs\n");
    out.push_str(&format!(
        "{:<3} {:<44} {:>11} {:>10} {:>10} {:>5}\n",
        "", "Arm", "Time", "ΔV^D rows", "ΔV^I rows", "no-op"
    ));
    for a in arms {
        let [primary, secondary, noop] = match &a.report {
            Some(r) => [
                r.primary_rows.to_string(),
                r.secondary_rows.to_string(),
                r.noop.to_string(),
            ],
            None => ["-".into(), "-".into(), "-".into()],
        };
        out.push_str(&format!(
            "{:<3} {:<44} {:>11} {primary:>10} {secondary:>10} {noop:>5}\n",
            a.ablation,
            a.arm,
            fmt_dur(a.time)
        ));
    }
    let cost: Vec<String> = cost
        .iter()
        .map(|(what, t)| format!("{what} {}", fmt_dur(*t)))
        .collect();
    out.push_str(&format!("Analysis of V3: {}\n", cost.join(", ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(system: System, batch: usize, ms: u64) -> Measurement {
        Measurement {
            system,
            batch,
            time: Duration::from_millis(ms),
            report: Default::default(),
        }
    }

    #[test]
    fn fig5_rendering_contains_all_systems_and_batches() {
        let ms = vec![
            m(System::CoreView, 10, 1),
            m(System::OuterJoin, 10, 2),
            m(System::OuterJoinGk, 10, 500),
            m(System::CoreView, 100, 3),
            m(System::OuterJoin, 100, 4),
            m(System::OuterJoinGk, 100, 900),
        ];
        let s = render_fig5("Figure 5(a)", &ms);
        assert!(s.contains("Core View"));
        assert!(s.contains("Outer Join View (GK)"));
        assert!(s.contains("500"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    fn table1_rendering_sorted_wide_first() {
        let t = Table1 {
            rows: vec![
                ("C".into(), 5, 1),
                ("LOCP".into(), 100, 10),
                ("LOC".into(), 20, 2),
                ("P".into(), 7, 3),
            ],
            batch: 60,
        };
        let s = render_table1(&t);
        let pos_colp = s.find("LOCP").unwrap();
        let pos_c = s.find("\nC ").unwrap();
        assert!(pos_colp < pos_c);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_nanos(640)), "640 ns");
        assert_eq!(fmt_dur(Duration::from_micros(12)), "12 µs");
        assert_eq!(fmt_dur(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_dur(Duration::from_millis(2500)), "2.500 s");
    }
}
