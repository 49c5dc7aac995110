//! Sect. III.B: "there is a 6.25% chance that two events will randomly
//! overlap" (5 ns events, 64 selected pixels, 20 µs window).
//!
//! The sentence does not pin down which probability is meant, so the
//! Monte Carlo reports every natural reading, measured on the *actual
//! arbiter* (not an idealized model), alongside the analytic
//! approximations. The conclusion: the number matches "probability
//! that a delayed pulse crosses a TDC clock edge" at a 12.8 MHz
//! conversion clock (5 ns / 78.1 ns = 6.4%), not the pairwise-overlap
//! probability (which is far higher at n = 64).

use crate::report::{section, Table};
use tepics_sensor::ColumnArbiter;
use tepics_util::SplitMix64;

struct McResult {
    p_any_overlap: f64,
    mean_queued: f64,
    p_event_queued: f64,
    p_code_edge_24mhz: f64,
    p_code_edge_12p8mhz: f64,
}

fn monte_carlo(n: usize, duration: f64, window: f64, trials: usize, seed: u64) -> McResult {
    let arbiter = ColumnArbiter::with_timing(duration, 1e-9);
    let mut rng = SplitMix64::new(seed);
    let mut any = 0usize;
    let mut queued_total = 0usize;
    let mut events_total = 0usize;
    let mut edge24 = 0usize;
    let mut edge128 = 0usize;
    let t24 = 1.0 / 24e6;
    let t128 = 1.0 / 12.8e6;
    for _ in 0..trials {
        let pulses: Vec<(usize, f64)> = (0..n).map(|row| (row, rng.next_f64() * window)).collect();
        let outcome = arbiter.arbitrate(&pulses);
        let queued = outcome.queued_count();
        if queued > 0 {
            any += 1;
        }
        queued_total += queued;
        events_total += outcome.events.len();
        for e in &outcome.events {
            if e.queued {
                // Does the delay move the pulse into a later clock period?
                let crosses = |t_clk: f64| {
                    (e.t_grant / t_clk).floor() as i64 != (e.t_flip / t_clk).floor() as i64
                };
                if crosses(t24) {
                    edge24 += 1;
                }
                if crosses(t128) {
                    edge128 += 1;
                }
            }
        }
    }
    McResult {
        p_any_overlap: any as f64 / trials as f64,
        mean_queued: queued_total as f64 / trials as f64,
        p_event_queued: queued_total as f64 / events_total as f64,
        p_code_edge_24mhz: edge24 as f64 / events_total as f64,
        p_code_edge_12p8mhz: edge128 as f64 / events_total as f64,
    }
}

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::from("# Event overlap — Monte Carlo on the column arbiter\n");
    let trials = 20_000;
    let window = 20e-6;

    out.push_str(&section(
        "Paper operating point: n = 64 events of 5 ns in a 20 µs window",
    ));
    let r = monte_carlo(64, 5e-9, window, trials, 0xCA11);
    let mut t = Table::new(&["interpretation", "measured", "analytic approx"]);
    let n = 64.0f64;
    let d = 5e-9f64;
    t.row_owned(vec![
        "P(any two events overlap in a sample)".into(),
        format!("{:.1}%", r.p_any_overlap * 100.0),
        format!(
            "{:.1}%  (1 − e^{{−n(n−1)d/T}})",
            (1.0 - (-n * (n - 1.0) * d / window).exp()) * 100.0
        ),
    ]);
    t.row_owned(vec![
        "E[# delayed pulses per sample]".into(),
        format!("{:.2}", r.mean_queued),
        format!("{:.2}  (n(n−1)d/T)", n * (n - 1.0) * d / window),
    ]);
    t.row_owned(vec![
        "P(a given pulse is delayed)".into(),
        format!("{:.2}%", r.p_event_queued * 100.0),
        format!("{:.2}%  ((n−1)d/T)", (n - 1.0) * d / window * 100.0),
    ]);
    t.row_owned(vec![
        "P(pulse code shifts, 24 MHz TDC)".into(),
        format!("{:.2}%", r.p_code_edge_24mhz * 100.0),
        "delay-weighted".into(),
    ]);
    t.row_owned(vec![
        "P(pulse code shifts, 12.8 MHz TDC)".into(),
        format!("{:.2}%", r.p_code_edge_12p8mhz * 100.0),
        "5 ns/78.1 ns = 6.4% per delayed event".into(),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nPaper claim: 6.25%. The pairwise-overlap reading measures {:.0}%\n\
         (any overlap) / {:.1}% (per event) — neither is 6.25%. The closest\n\
         quantity is the chance that a *serialization delay crosses one TDC\n\
         clock period*: 5 ns events against an 80 ns-class clock give\n\
         5/80 = 6.25% exactly; our measured edge-crossing ratio at 12.8 MHz\n\
         is {:.1}% of delayed pulses.\n",
        r.p_any_overlap * 100.0,
        r.p_event_queued * 100.0,
        if r.p_event_queued > 0.0 {
            r.p_code_edge_12p8mhz / r.p_event_queued * 100.0
        } else {
            0.0
        }
    ));

    out.push_str(&section("Sweep: selected pixels per column"));
    let mut t = Table::new(&["n", "P(any overlap)", "E[delayed]", "P(event delayed)"]);
    for n in [8usize, 16, 32, 64] {
        let r = monte_carlo(n, 5e-9, window, trials / 2, 0xCA12 + n as u64);
        t.row_owned(vec![
            n.to_string(),
            format!("{:.2}%", r.p_any_overlap * 100.0),
            format!("{:.3}", r.mean_queued),
            format!("{:.3}%", r.p_event_queued * 100.0),
        ]);
    }
    out.push_str(&t.render());

    out.push_str(&section("Sweep: event duration (n = 64)"));
    let mut t = Table::new(&[
        "duration",
        "P(any overlap)",
        "E[delayed]",
        "P(code shift @24MHz)",
    ]);
    for d in [1e-9, 5e-9, 20e-9, 80e-9] {
        let r = monte_carlo(64, d, window, trials / 2, 0xCA20);
        t.row_owned(vec![
            format!("{:.0} ns", d * 1e9),
            format!("{:.1}%", r.p_any_overlap * 100.0),
            format!("{:.2}", r.mean_queued),
            format!("{:.2}%", r.p_code_edge_24mhz * 100.0),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nShape check: overlap statistics grow ~linearly in n² and d, as the\n\
         birthday-style analysis predicts; serialization never drops a pulse\n\
         (arbiter invariant, property-tested).\n",
    );
    out
}
