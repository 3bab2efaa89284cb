use super::*;

fn demand(job: JobId, priority: u32, min: usize, max: usize) -> JobDemand {
    JobDemand {
        job,
        priority,
        min_pages: min,
        max_pages: max,
    }
}

fn check_invariants(pool: usize, jobs: &[JobDemand]) {
    let shares = divide(pool, jobs);
    assert_eq!(shares.len(), jobs.len(), "wrong arity");
    let total: usize = shares.iter().sum();
    assert!(total <= pool, "overcommitted {total} > {pool}");
    let total_min: usize = jobs.iter().map(|j| j.min_pages).sum();
    for (s, j) in shares.iter().zip(jobs) {
        assert!(*s <= j.cap(), "share {s} above cap");
        if total_min <= pool {
            assert!(
                *s >= j.min_pages,
                "share {s} below guaranteed min {}",
                j.min_pages
            );
        }
    }
    // Pool is not wasted: if some job still has room, the whole pool (up to
    // the sum of caps) was handed out.
    let total_cap: usize = jobs.iter().map(JobDemand::cap).sum();
    if total_min <= pool {
        assert_eq!(total, pool.min(total_cap), "left pages on the table");
    }
}

#[test]
fn invariants_hold_over_a_demand_sweep() {
    for pool in [0usize, 1, 3, 7, 16, 33, 100] {
        for njobs in 0usize..6 {
            let jobs: Vec<JobDemand> = (0..njobs)
                .map(|i| demand(i as JobId, (i % 3) as u32, 1 + i % 4, 4 + (i * 7) % 20))
                .collect();
            check_invariants(pool, &jobs);
        }
    }
}

#[test]
fn priority_weighted_is_proportional() {
    let jobs = [demand(1, 3, 0, 100), demand(2, 1, 0, 100)];
    let shares = divide(40, &jobs);
    assert_eq!(shares.iter().sum::<usize>(), 40);
    assert!(
        shares[0] >= 3 * shares[1] - 1,
        "priority 3 should get ~3x of priority 1: {shares:?}"
    );
}

#[test]
fn equal_priorities_split_as_equal_share_did() {
    // Per pool, the shares of 1..=4 jobs as the former priority-blind
    // equal-share policy divided them: with one common priority, `divide`
    // must agree whatever that priority is.
    let expected: [(usize, [&[usize]; 4]); 5] = [
        (3, [&[2], &[1, 2], &[1, 1, 1], &[1, 1, 1, 0]]),
        (5, [&[2], &[2, 3], &[1, 1, 3], &[1, 2, 2, 0]]),
        (9, [&[2], &[2, 7], &[2, 3, 4], &[2, 3, 3, 1]]),
        (20, [&[2], &[2, 7], &[2, 7, 11], &[2, 7, 7, 4]]),
        (64, [&[2], &[2, 7], &[2, 7, 12], &[2, 7, 12, 4]]),
    ];
    for priority in [0, 1, 7] {
        for (pool, by_jobs) in expected {
            for want in by_jobs {
                let jobs: Vec<JobDemand> = (0..want.len())
                    .map(|i| demand(i as JobId, priority, 1 + i % 3, 2 + (i * 5) % 13))
                    .collect();
                assert_eq!(
                    divide(pool, &jobs),
                    want,
                    "pool {pool}, priority {priority}"
                );
            }
        }
    }
}

#[test]
fn surplus_respects_caps_and_overflows_to_others() {
    let jobs = [demand(1, 9, 1, 3), demand(2, 1, 1, 100)];
    assert_eq!(
        divide(30, &jobs),
        vec![3, 27],
        "cap ignored or overflow lost"
    );
}

#[test]
fn infeasible_pool_degrades_proportionally_to_minimums() {
    // Pool shrank below the committed minimums: what is left is divided in
    // proportion to the minimums.
    let jobs = [demand(1, 1, 8, 20), demand(2, 1, 4, 20)];
    let shares = divide(6, &jobs);
    assert_eq!(shares.iter().sum::<usize>(), 6);
    assert!(shares[0] >= shares[1], "{shares:?}");
}

#[test]
fn empty_job_list_divides_to_nothing() {
    assert!(divide(64, &[]).is_empty());
}
