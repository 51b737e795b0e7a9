//! Criterion: GLS service overhead over direct locking (Figure 11 companion).
//!
//! Measures one acquire+release through the GLS service vs directly on the
//! lock object, single-threaded, with 1 and 512 distinct lock addresses.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gls::{GlsService, LockKind};
use gls_locks::{RawLock, TicketLock};

fn gls_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("gls_vs_direct");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));

    // Direct baseline: one ticket lock.
    let direct = TicketLock::new();
    group.bench_function("direct TICKET, 1 lock", |b| {
        b.iter(|| {
            direct.lock();
            direct.unlock();
        })
    });

    for &lock_count in &[1usize, 512] {
        let service = GlsService::new();
        let addrs: Vec<usize> = (0..lock_count).map(|i| 0x20_0000 + i * 64).collect();
        // Warm up: create every lock object.
        for &a in &addrs {
            service.lock_with(LockKind::Ticket, a).unwrap();
            service.unlock(a).unwrap();
        }
        let mut next = 0usize;
        group.bench_with_input(
            BenchmarkId::new("GLS TICKET", lock_count),
            &lock_count,
            |b, _| {
                b.iter(|| {
                    let addr = addrs[next % addrs.len()];
                    next = next.wrapping_add(1);
                    service.lock_with(LockKind::Ticket, addr).unwrap();
                    service.unlock(addr).unwrap();
                })
            },
        );
    }

    // The default (GLK) interface with a single hot address: the fully
    // cached fast path.
    let service = GlsService::new();
    let addr = 0xCAFE_BABE_usize;
    service.lock(addr).unwrap();
    service.unlock(addr).unwrap();
    group.bench_function("GLS GLK, cached address", |b| {
        b.iter(|| {
            service.lock(addr).unwrap();
            service.unlock(addr).unwrap();
        })
    });

    group.finish();
}

criterion_group!(benches, gls_overhead);
criterion_main!(benches);
