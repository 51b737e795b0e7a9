//! Figure 15 (extension): reader-writer locks on a read-ratio sweep.
//!
//! One shared rw lock, rising read percentage, comparing the raw TTAS-based
//! rwlock (the paper's pthread-rwlock replacement, §5.2 footnote 7), the
//! same traffic routed through the GLS service rw interface (a word-sized
//! futex rwlock per address), and `std::sync::RwLock` as the system
//! baseline. Expected shape: all three scale up as the mix approaches 100%
//! reads; GLS-rw tracks the raw lock with a small constant mapping overhead
//! (the Figure 11/12 story, now for rw traffic); writers keep completing at
//! every ratio thanks to the writer-intent bit.

use gls::GlsConfig;
use gls_bench::{banner, point_duration};
use gls_workloads::report::SeriesTable;
use gls_workloads::rw_bench::{self, RwLockSetup, RwSweepConfig};

fn main() {
    banner(
        "Figure 15 (rw)",
        "read-ratio sweep over one reader-writer lock (CS = 200 cycles)",
    );
    let setups = [
        RwLockSetup::Ttas,
        RwLockSetup::Gls(GlsConfig::default()),
        RwLockSetup::Std,
    ];
    let threads = gls_runtime::hardware_contexts().clamp(2, 8);

    let mut table = SeriesTable::new(
        format!("Figure 15: rw read-ratio sweep, {threads} threads (Mops/s)"),
        "read%",
        setups.iter().map(|s| s.build().label()).collect(),
    );
    for read_percent in [0, 25, 50, 75, 90, 95, 99, 100] {
        let mut row = Vec::new();
        for setup in &setups {
            let lock = setup.build();
            let result = rw_bench::run(
                &lock,
                &RwSweepConfig {
                    threads,
                    read_percent,
                    cs_cycles: 200,
                    delay_cycles: 100,
                    duration: point_duration(),
                    ..Default::default()
                },
            );
            row.push(result.mops());
        }
        table.push_row(format!("{read_percent}%"), row);
    }
    table.print();
    println!("# GLS(RW) pays the address->lock mapping on top of a futex rwlock; writers complete at every ratio (writer-intent bit)");
}
