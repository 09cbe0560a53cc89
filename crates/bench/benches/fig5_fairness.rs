//! Figure 5 — per-site latency with 5 EC2 sites under a low conflict rate (2%).
//!
//! Paper setup: 512 clients per site. Scaled-down harness: 32 clients per site (the
//! protocols are latency-bound, not load-bound, in this figure, so the per-site means are
//! essentially unchanged). The paper's headline numbers: FPaxos f=1 82 ms at the leader
//! site vs ~265 ms at São Paulo/Singapore; Tempo f=1 ≈ 138 ms average, Tempo f=2 ≈ 178 ms,
//! Atlas f=1 ≈ 155 ms, Atlas f=2 ≈ 257 ms, Caesar ≈ 195 ms.

use tempo_atlas::Atlas;
use tempo_bench::{full_replication, header};
use tempo_caesar::Caesar;
use tempo_core::Tempo;
use tempo_fpaxos::FPaxos;
use tempo_planet::{ec2_region_label, ec2_regions};
use tempo_sim::RunReport;

const CLIENTS_PER_SITE: usize = 32;
const CONFLICT: f64 = 0.02;
const PAYLOAD: usize = 100;

fn row(label: &str, report: &RunReport, paper_avg: &str) {
    let sites: Vec<String> = (0..5)
        .map(|s| format!("{:>7.0}", report.site_mean_ms(s)))
        .collect();
    println!(
        "{:<14} {} {:>9.0} {:>12} {}",
        label,
        sites.join(" "),
        report.mean_latency_ms(),
        paper_avg,
        if report.stalled { "[STALLED]" } else { "" }
    );
}

fn main() {
    header(
        "Figure 5: per-site latency, 5 sites, 2% conflicts",
        "Figure 5, §6.3 'Fairness'  (paper: 512 clients/site; here: 32 clients/site)",
    );
    print!("{:<14}", "protocol");
    for region in ec2_regions() {
        print!(
            "{:>8}",
            &ec2_region_label(&region)[..ec2_region_label(&region).len().min(7)]
        );
    }
    println!("{:>10} {:>12}", "avg(ms)", "paper avg");

    let tempo1 = full_replication::<Tempo>(1, CLIENTS_PER_SITE, CONFLICT, PAYLOAD, None);
    row("Tempo f=1", &tempo1, "138");
    let tempo2 = full_replication::<Tempo>(2, CLIENTS_PER_SITE, CONFLICT, PAYLOAD, None);
    row("Tempo f=2", &tempo2, "178");
    let atlas1 = full_replication::<Atlas>(1, CLIENTS_PER_SITE, CONFLICT, PAYLOAD, None);
    row("Atlas f=1", &atlas1, "155");
    let atlas2 = full_replication::<Atlas>(2, CLIENTS_PER_SITE, CONFLICT, PAYLOAD, None);
    row("Atlas f=2", &atlas2, "257");
    let fpaxos1 = full_replication::<FPaxos>(1, CLIENTS_PER_SITE, CONFLICT, PAYLOAD, None);
    row("FPaxos f=1", &fpaxos1, "~175");
    let fpaxos2 = full_replication::<FPaxos>(2, CLIENTS_PER_SITE, CONFLICT, PAYLOAD, None);
    row("FPaxos f=2", &fpaxos2, "~230");
    let caesar = full_replication::<Caesar>(2, CLIENTS_PER_SITE, CONFLICT, PAYLOAD, None);
    row("Caesar", &caesar, "195");

    println!("\nshape checks (as reported in §6.3):");
    // FPaxos is unfair: its worst site is much slower than its leader site.
    let fpaxos_spread = (0..5)
        .map(|s| fpaxos1.site_mean_ms(s))
        .fold(0.0f64, f64::max)
        / (0..5)
            .map(|s| fpaxos1.site_mean_ms(s))
            .fold(f64::MAX, f64::min);
    let tempo_spread = (0..5)
        .map(|s| tempo1.site_mean_ms(s))
        .fold(0.0f64, f64::max)
        / (0..5)
            .map(|s| tempo1.site_mean_ms(s))
            .fold(f64::MAX, f64::min);
    println!("  FPaxos worst/best site ratio: {fpaxos_spread:.1} (paper: up to 3.3x)");
    println!("  Tempo  worst/best site ratio: {tempo_spread:.1} (leaderless, ~uniform)");
    println!(
        "  Tempo f=2 vs Atlas f=2 average: {:.0} ms vs {:.0} ms (paper: 178 vs 257)",
        tempo2.mean_latency_ms(),
        atlas2.mean_latency_ms()
    );
    assert!(
        fpaxos_spread > tempo_spread,
        "FPaxos must be less fair than Tempo"
    );
}
