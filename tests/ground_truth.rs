//! Policy ground-truth tests: synthetic workloads with *known* phase
//! structure must drive the policies to the configurations the phases
//! call for.

use clustered::policies::IntervalDistantIlp;
use clustered::sim::{Processor, ReconfigPolicy, SimConfig, SimStats};
use clustered::workloads::synthetic::{phased, PhaseKind, PhaseSpec};
use clustered::workloads::Workload;

fn run(w: &Workload, policy: Box<dyn ReconfigPolicy>, instructions: u64) -> SimStats {
    let stream = w.trace().map(|r| r.expect("synthetic kernel cannot fault"));
    let mut cpu = Processor::new(SimConfig::default(), stream, policy).expect("valid config");
    cpu.run(20_000).expect("warm-up");
    let before = *cpu.stats();
    cpu.run(instructions).expect("no stall");
    cpu.stats().delta_since(&before)
}

fn cycles_fraction_at(stats: &SimStats, clusters: usize) -> f64 {
    stats.cycles_at_config[clusters - 1] as f64 / stats.cycles.max(1) as f64
}

#[test]
fn pure_parallel_phase_keeps_the_machine_wide() {
    let w = phased("all-parallel", &[PhaseSpec::lasting(PhaseKind::Parallel, 50_000)]);
    let s = run(&w, Box::new(IntervalDistantIlp::with_interval(10_000)), 60_000);
    assert!(
        cycles_fraction_at(&s, 16) > 0.8,
        "parallel code should run wide; config distribution {:?}",
        &s.cycles_at_config[..]
    );
}

#[test]
fn pure_serial_phase_narrows_the_machine() {
    let w = phased("all-serial", &[PhaseSpec::lasting(PhaseKind::Serial, 50_000)]);
    let s = run(&w, Box::new(IntervalDistantIlp::with_interval(10_000)), 60_000);
    assert!(
        cycles_fraction_at(&s, 4) > 0.5,
        "serial code should run narrow; config distribution {:?}",
        &s.cycles_at_config[..]
    );
}

#[test]
fn alternating_phases_use_both_configurations() {
    let w = phased(
        "alternating",
        &[
            PhaseSpec::lasting(PhaseKind::Serial, 30_000),
            PhaseSpec::lasting(PhaseKind::Parallel, 30_000),
        ],
    );
    let s = run(&w, Box::new(IntervalDistantIlp::with_interval(10_000)), 150_000);
    let narrow = cycles_fraction_at(&s, 4);
    let wide = cycles_fraction_at(&s, 16);
    assert!(
        narrow > 0.10 && wide > 0.10,
        "policy should track both phases: narrow {narrow:.2}, wide {wide:.2}"
    );
    assert!(s.reconfigurations >= 2, "must switch at least once per phase pair");
}

#[test]
fn short_intervals_flap_as_the_paper_observed() {
    // Paper §4.3: "the smaller the interval length ... the noisier the
    // measurements, resulting in some incorrect decisions" — 1K-probe
    // decisions oscillate on code a 10K probe handles cleanly.
    let w = phased("steady", &[PhaseSpec::lasting(PhaseKind::Parallel, 50_000)]);
    let fine = run(&w, Box::new(IntervalDistantIlp::with_interval(1_000)), 120_000);
    let coarse = run(&w, Box::new(IntervalDistantIlp::with_interval(10_000)), 120_000);
    assert!(
        fine.reconfigurations >= coarse.reconfigurations,
        "1K probes should reconfigure at least as often: 1K={}, 10K={}",
        fine.reconfigurations,
        coarse.reconfigurations
    );
}

#[test]
fn serial_phase_shows_no_distant_ilp() {
    let serial = phased("s", &[PhaseSpec::lasting(PhaseKind::Serial, 50_000)]);
    let parallel = phased("p", &[PhaseSpec::lasting(PhaseKind::Parallel, 50_000)]);
    let fixed = |w: &Workload| run(w, Box::new(clustered::sim::FixedPolicy::new(16)), 40_000);
    let s = fixed(&serial);
    let p = fixed(&parallel);
    let s_frac = s.distant_issues as f64 / s.committed as f64;
    let p_frac = p.distant_issues as f64 / p.committed as f64;
    assert!(
        p_frac > s_frac + 0.2,
        "distant-ILP metric must separate the phases: serial {s_frac:.3}, parallel {p_frac:.3}"
    );
}

#[test]
fn parallel_phase_gains_from_width_serial_does_not() {
    let serial = phased("s2", &[PhaseSpec::lasting(PhaseKind::Serial, 50_000)]);
    let parallel = phased("p2", &[PhaseSpec::lasting(PhaseKind::Parallel, 50_000)]);
    let at = |w: &Workload, n: usize| {
        run(w, Box::new(clustered::sim::FixedPolicy::new(n)), 40_000).ipc()
    };
    assert!(
        at(&parallel, 16) > at(&parallel, 2) * 1.2,
        "parallel synthetic phase must scale with clusters"
    );
    let serial_wide = at(&serial, 16);
    let serial_narrow = at(&serial, 2);
    assert!(
        serial_narrow >= serial_wide * 0.9,
        "serial phase must not need the wide machine: 2→{serial_narrow:.3}, 16→{serial_wide:.3}"
    );
}
