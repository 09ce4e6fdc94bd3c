//! The index-ordered worker pool: the one place the tuner fans work out to
//! threads. Batch evaluation ([`crate::DynamicEvaluator::eval_batch_records`])
//! and the static pre-pass ([`crate::run_prepass`]) both map their items
//! through it, at the task's [`crate::TuningTask::workers`] width.
//!
//! Workers claim items in index order from a shared counter and each result
//! lands in its item's slot, so the output order — and anything the caller
//! reduces from it — is the same at every width.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Map `f` over `items` on up to `workers` scoped threads and return the
/// results in item order.
///
/// `f` also receives the worker index, or `None` when the map runs
/// serially on the calling thread (`workers <= 1`, or a single item). A
/// panic in `f` is caught on its worker, every other item still runs, and
/// the payload of the first panicking item is re-raised here, exactly
/// where a serial map would have raised it.
pub fn map_ordered<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, Option<u32>) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers == 1 {
        return items.iter().map(|item| f(item, None)).collect();
    }
    let next = AtomicUsize::new(0);
    let cells: Vec<Mutex<Option<std::thread::Result<R>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for w in 0..workers {
            let (next, cells, f) = (&next, &cells, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = catch_unwind(AssertUnwindSafe(|| f(item, Some(w as u32))));
                *cells[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            });
        }
    });
    cells
        .into_iter()
        .map(|c| {
            match c
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("worker filled every claimed slot")
            {
                Ok(r) => r,
                Err(payload) => resume_unwind(payload),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_at_every_width() {
        let items: Vec<u64> = (0..37).collect();
        let serial = map_ordered(&items, 1, |x, w| {
            assert_eq!(w, None);
            x * x
        });
        for workers in [2, 3, 8, 64] {
            let pooled = map_ordered(&items, workers, |x, w| {
                assert!(w.is_some_and(|w| (w as usize) < workers));
                x * x
            });
            assert_eq!(pooled, serial, "width {workers}");
        }
        assert!(map_ordered(&[] as &[u64], 4, |x, _| *x).is_empty());
    }

    #[test]
    fn the_first_panicking_item_is_re_raised_after_every_item_ran() {
        let ran = AtomicUsize::new(0);
        let items: Vec<usize> = (0..9).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            map_ordered(&items, 3, |&i, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 4 || i == 7 {
                    std::panic::panic_any(i);
                }
                i
            })
        }))
        .expect_err("a panicking item must propagate");
        assert_eq!(err.downcast_ref::<usize>(), Some(&4));
        assert_eq!(ran.load(Ordering::Relaxed), items.len());
    }
}
