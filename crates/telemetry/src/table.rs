//! Counter tables: a counter block is declared once, as rows of
//! [`counter_table!`], and what used to restate the schema by hand is
//! generated from the rows — the live block of cells, the serde snapshot
//! struct, `snapshot`/`merge`/`delta`, and the [`Field`] descriptors the
//! Prometheus exporter, its validator and the schema tests loop over.
//! Adding a metric is one row plus the site that bumps its cell.
//!
//! The macro takes the snapshot struct first (its literal fields are not
//! rows: `merge` and `delta` keep `self`'s), then any number of live
//! blocks (`+ { .. }` after one adds cells that feed no row directly),
//! then an optional `derived { .. }` group of rows the owner fills in by
//! hand. A row is `field: Cell => type, kind "series", fold;` — labels
//! fixed per row, such as `stage="1"`, go inside the series string.
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use serde::{Deserialize, Serialize};
//!
//! pbs_telemetry::counter_table! {
//!     /// What a door saw.
//!     #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
//!     pub struct DoorStats {
//!         /// Not a row.
//!         pub name: String,
//!     }
//!     /// The live cells.
//!     pub struct Door {
//!         /// People through the door.
//!         entries: AtomicU64 => u64, counter "door_entries_total", sum;
//!         /// Longest queue seen.
//!         queue_peak: AtomicU64 => u64, gauge "door_queue_peak", max;
//!     }
//! }
//!
//! let door = Door::default();
//! door.entries.fetch_add(3, Ordering::Relaxed);
//! door.queue_peak.fetch_max(2, Ordering::Relaxed);
//! let mut a = door.snapshot();
//! a.merge(&DoorStats { entries: 4, queue_peak: 1, ..Default::default() });
//! assert_eq!((a.entries, a.queue_peak), (7, 2));
//! assert_eq!(a.delta(&door.snapshot()).entries, 4);
//! assert_eq!(DoorStats::FIELDS[1].series, "door_queue_peak");
//! ```

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

/// Prometheus type of a row. Also decides `delta`: a counter subtracts,
/// a gauge keeps the later value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic count.
    Counter,
    /// Point-in-time level.
    Gauge,
}

impl Kind {
    /// The word after the series name on a `# TYPE` line.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }

    /// What a row reads over the interval `then → now`.
    pub fn delta(self, now: u64, then: u64) -> u64 {
        match self {
            Kind::Counter => now.saturating_sub(then),
            Kind::Gauge => now,
        }
    }
}

/// How `merge` combines a row of two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// The snapshots describe different instances (caches, shards, runs):
    /// counts and levels add.
    Sum,
    /// High-water marks and severity levels: the worse one wins.
    Max,
}

impl Fold {
    /// Folds two values of one row.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Fold::Sum => a + b,
            Fold::Max => a.max(b),
        }
    }
}

/// One row of a table, as data.
pub struct Field<S> {
    /// Snapshot field name (the JSON key).
    pub name: &'static str,
    /// Prometheus series with any per-row labels: `family` or
    /// `family{label="v"}`.
    pub series: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// Merge rule.
    pub fold: Fold,
    /// Reads the row from a snapshot.
    pub get: fn(&S) -> u64,
    /// Writes the row in a snapshot.
    pub set: fn(&mut S, u64),
}

impl<S> Field<S> {
    /// The metric family: [`series`](Self::series) without its labels.
    pub fn family(&self) -> &'static str {
        self.series.split('{').next().unwrap_or(self.series)
    }

    /// The labels inside the braces of [`series`](Self::series), or `""`.
    pub fn labels(&self) -> &'static str {
        let braced = &self.series[self.family().len()..];
        braced.trim_start_matches('{').trim_end_matches('}')
    }
}

/// A live counter cell a table block can be built from. The table only
/// reads cells (and preloads them in tests); how a cell may be *bumped* —
/// atomic RMW, or a plain load/store under a single-writer lock — is the
/// owning block's contract.
pub trait Cell {
    /// Current value (`Relaxed`).
    fn get(&self) -> u64;
    /// Overwrites the value (`Relaxed`); the caller must be the cell's
    /// sole writer.
    fn set(&self, v: u64);
}

impl Cell for AtomicU64 {
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
    fn set(&self, v: u64) {
        self.store(v, Ordering::Relaxed);
    }
}

impl Cell for AtomicUsize {
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed) as u64
    }
    fn set(&self, v: u64) {
        self.store(v as usize, Ordering::Relaxed);
    }
}

/// Declares a counter schema once; see the [module docs](self).
#[macro_export]
macro_rules! counter_table {
    (@kind counter) => { $crate::table::Kind::Counter };
    (@kind gauge) => { $crate::table::Kind::Gauge };
    (@fold sum) => { $crate::table::Fold::Sum };
    (@fold max) => { $crate::table::Fold::Max };

    // The snapshot struct and all that needs only the flat list of rows.
    (@snapshot
        $(#[$smeta:meta])*
        $Snap:ident { $($plain:tt)* }
        $( $(#[$rmeta:meta])* $f:ident : $ty:ty, $kind:ident $series:literal, $fold:ident; )*
    ) => {
        $(#[$smeta])*
        pub struct $Snap {
            $($plain)*
            $( $(#[$rmeta])* pub $f: $ty, )*
        }

        #[allow(clippy::unnecessary_cast)]
        impl $Snap {
            /// One descriptor per table row, in declaration order.
            pub const FIELDS: &'static [$crate::table::Field<$Snap>] = &[ $(
                $crate::table::Field {
                    name: stringify!($f),
                    series: $series,
                    kind: $crate::counter_table!(@kind $kind),
                    fold: $crate::counter_table!(@fold $fold),
                    get: |s| s.$f as u64,
                    set: |s, v| s.$f = v as $ty,
                },
            )* ];

            /// Folds `other` into `self`, row by row. Fields declared
            /// outside the table's rows (sizes, labels) are kept from
            /// `self`, so anything computed from them together with a
            /// folded row is only meaningful on an unmerged snapshot.
            /// The fold of each row:
            ///
            $( #[doc = concat!("* `", stringify!($f), "`: ", stringify!($fold))] )*
            pub fn merge(&mut self, other: &Self) {
                for f in Self::FIELDS {
                    (f.set)(self, f.fold.apply((f.get)(self), (f.get)(other)));
                }
            }

            /// What happened between `then` and `self`: counter rows
            /// subtract, gauge rows and fields outside the table keep
            /// `self`'s value.
            pub fn delta(&self, then: &Self) -> Self {
                let mut out = Clone::clone(self);
                for f in Self::FIELDS {
                    (f.set)(&mut out, f.kind.delta((f.get)(self), (f.get)(then)));
                }
                out
            }
        }
    };

    (
        $(#[$smeta:meta])*
        pub struct $Snap:ident { $($plain:tt)* }
        $(
            $(#[$lmeta:meta])*
            pub struct $Live:ident {
                $(
                    $(#[$rmeta:meta])*
                    $f:ident : $cell:ty => $ty:ty, $kind:ident $series:literal, $fold:ident;
                )*
            }
            $(+ { $($extra:tt)* })?
        )*
        $(derived {
            $(
                $(#[$dmeta:meta])*
                $df:ident : $dty:ty, $dkind:ident $dseries:literal, $dfold:ident;
            )*
        })?
    ) => {
        $crate::counter_table! { @snapshot
            $(#[$smeta])*
            $Snap { $($plain)* }
            $($( $(#[$rmeta])* $f: $ty, $kind $series, $fold; )*)*
            $($( $(#[$dmeta])* $df: $dty, $dkind $dseries, $dfold; )*)?
        }
        $(
            $(#[$lmeta])*
            #[derive(Debug, Default)]
            pub struct $Live {
                $( $(#[$rmeta])* pub $f: $cell, )*
                $($($extra)*)?
            }

            #[allow(clippy::unnecessary_cast)]
            impl $Live {
                /// Folds this block's cells into the matching rows of
                /// `snap` (several blocks, or several shards of one, build
                /// up one snapshot).
                pub fn add_into(&self, snap: &mut $Snap) {
                    $( snap.$f = $crate::counter_table!(@fold $fold)
                        .apply(snap.$f as u64, $crate::table::Cell::get(&self.$f)) as $ty; )*
                }

                /// A snapshot holding this block's rows; everything else
                /// is at its default.
                pub fn snapshot(&self) -> $Snap {
                    let mut snap = <$Snap as Default>::default();
                    self.add_into(&mut snap);
                    snap
                }

                /// Inverse of [`snapshot`](Self::snapshot), for schema
                /// tests: stores `snap`'s rows into this block's cells.
                #[doc(hidden)]
                pub fn preload(&self, snap: &$Snap) {
                    $( $crate::table::Cell::set(&self.$f, snap.$f as u64); )*
                }
            }
        )*
    };
}

/// Schema-test support: checks a table's `merge`, `delta` and serde
/// round-trip against its [`Field`] rows without naming one, and returns
/// the snapshot it used — row `i` holds the `i`-th prime — so the caller
/// can go on to check a live block (`preload`, then `snapshot`) or an
/// exporter against the same values.
///
/// # Panics
///
/// Panics, naming the row, on the first row that `merge` or `delta` does
/// not treat as its [`Fold`] / [`Kind`] says, or that a round-trip loses.
pub fn check_table<S>(fields: &[Field<S>], merge: fn(&mut S, &S), delta: fn(&S, &S) -> S) -> S
where
    S: Default + Clone + PartialEq + Debug + Serialize + Deserialize,
{
    let primes = (2u64..).filter(|n| (2..*n).take_while(|d| d * d <= *n).all(|d| n % d != 0));
    let values: Vec<u64> = primes.take(2 * fields.len()).collect();
    let (small, large) = values.split_at(fields.len());
    let fill = |values: &[u64]| {
        let mut snap = S::default();
        for (field, v) in fields.iter().zip(values) {
            (field.set)(&mut snap, *v);
        }
        snap
    };
    let (then, now) = (fill(small), fill(large));
    let mut merged = then.clone();
    merge(&mut merged, &now);
    let interval = delta(&now, &then);
    for (i, f) in fields.iter().enumerate() {
        let (a, b) = (small[i], large[i]);
        assert_eq!((f.get)(&then), a, "{}: set then get", f.name);
        assert_eq!((f.get)(&merged), f.fold.apply(a, b), "{}: merge is {:?}", f.name, f.fold);
        assert_eq!((f.get)(&interval), f.kind.delta(b, a), "{}: delta of a {:?}", f.name, f.kind);
    }
    let back = S::from_content(&then.to_content()).expect("snapshot round-trips");
    assert_eq!(back, then);
    then
}
