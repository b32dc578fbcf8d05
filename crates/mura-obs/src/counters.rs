//! Declarative counter sets: every counter is declared once.
//!
//! [`counter_set!`](crate::counter_set) takes one table — per metric family
//! its help text, per field its name and labels — and generates the live
//! struct of [`Counter`]s, the `Copy` snapshot struct, `snapshot`,
//! saturating `since`, `add`, the `[u64; N]` wire form and the [`Row`]s
//! from which the three renderers here produce the `.stats` text, the
//! Prometheus page and the bench JSON. Adding a counter is one row.
//!
//! A table has up to three parts. `counter` families are stored: one
//! [`Counter`] per field in the live struct. Families under `supplied` are
//! fields of the snapshot only — gauges and totals that live elsewhere
//! (a lock, another crate's gauge) and are filled in by whoever takes the
//! snapshot. Fields under `derived` are copies or sums of other rows kept
//! for callers that read one flat struct; their sources are rendered, they
//! are not.

use std::fmt::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// One stored counter. `Relaxed` throughout: a statistic publishes no
/// other data.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reads the counter and resets it to zero, so that deltas shipped
    /// elsewhere accumulate exactly once.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// How a field's values relate over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total: `since` subtracts.
    Counter,
    /// Point-in-time value: `since` keeps the later one.
    Gauge,
}

impl Kind {
    /// The Prometheus `# TYPE`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }

    pub fn since(self, later: u64, earlier: u64) -> u64 {
        match self {
            Kind::Counter => later.saturating_sub(earlier),
            Kind::Gauge => later,
        }
    }
}

/// One declared field of a counter set.
#[derive(Debug)]
pub struct Field {
    /// The struct field (and JSON key).
    pub name: &'static str,
    pub kind: Kind,
    /// The metric family; empty for `derived` fields, which no text
    /// renderer shows.
    pub family: &'static str,
    pub help: &'static str,
    pub labels: &'static [(&'static str, &'static str)],
}

impl Field {
    /// The sample's name on the page: `family{k="v",…}`.
    pub fn series(&self) -> String {
        let mut s = self.family.to_string();
        crate::prometheus::write_labels(&mut s, self.labels);
        s
    }
}

/// A declared field with its value in one snapshot.
pub type Row = (&'static Field, u64);

/// The rendered rows of `rows`, one slice per family (a table keeps a
/// family's fields together).
pub fn families(rows: &[Row]) -> impl Iterator<Item = &[Row]> {
    rows.chunk_by(|a, b| a.0.family == b.0.family).filter(|run| !run[0].0.family.is_empty())
}

/// What a `.stats` line calls a family: its name without the `mura_`
/// every family of this workspace starts with.
pub fn stats_title(family: &str) -> &str {
    family.strip_prefix("mura_").unwrap_or(family)
}

/// The `.stats` text: one line per family under its [`stats_title`], each
/// value preceded by its label values.
pub fn write_stats(rows: &[Row], out: &mut impl Write) -> fmt::Result {
    for run in families(rows) {
        write!(out, "{:<32}", stats_title(run[0].0.family))?;
        for (i, (field, value)) in run.iter().enumerate() {
            out.write_str(if i == 0 { " " } else { " / " })?;
            for (_, label) in field.labels {
                write!(out, "{label} ")?;
            }
            write!(out, "{value}")?;
        }
        out.write_char('\n')?;
    }
    Ok(())
}

/// The bench JSON: one object keyed by field name, `derived` fields
/// included.
pub fn json_object(rows: &[Row]) -> String {
    let body: Vec<String> = rows.iter().map(|(f, v)| format!("\"{}\": {v}", f.name)).collect();
    format!("{{{}}}", body.join(", "))
}

/// Declares a counter set; see the [module docs](crate::counters).
///
/// ```
/// mura_obs::counter_set! {
///     /// Doors.
///     pub struct DoorStats => DoorSnapshot {
///         counter "door_events_total", "Door events by kind." {
///             opened {event = "open"},
///             closed {event = "close"},
///         }
///         supplied { gauge "door_ajar", "1 while the door is open." { ajar } }
///     }
/// }
/// static DOORS: DoorStats = DoorStats::new();
/// DOORS.opened.inc();
/// let snap = DoorSnapshot { ajar: 1, ..DOORS.snapshot() };
/// let window = snap.since(&snap);
/// assert_eq!((snap.opened, window.opened, window.ajar), (1, 0, 1));
/// ```
#[macro_export]
macro_rules! counter_set {
    (@kind counter) => { $crate::counters::Kind::Counter };
    (@kind gauge) => { $crate::counters::Kind::Gauge };
    (
        $(#[$meta:meta])*
        $vis:vis struct $Set:ident => $Snap:ident {
            $( counter $fam:literal, $help:literal {
                $( $(#[$fmeta:meta])* $f:ident $({ $($lk:ident = $lv:literal),+ })? ),+ $(,)?
            } )*
            $( supplied {
                $( $skind:ident $sfam:literal, $shelp:literal {
                    $( $(#[$smeta:meta])* $s:ident $({ $($slk:ident = $slv:literal),+ })? ),+ $(,)?
                } )+
            } )?
            $( derived { $( $(#[$dmeta:meta])* $d:ident ),+ $(,)? } )?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $Set {
            $($( $(#[$fmeta])* pub $f: $crate::counters::Counter, )+)*
        }

        impl $Set {
            pub const fn new() -> Self {
                $Set { $($( $f: $crate::counters::Counter::new(), )+)* }
            }

            /// The stored counters now; supplied and derived fields zero.
            pub fn snapshot(&self) -> $Snap {
                $Snap {
                    $($( $f: self.$f.get(), )+)*
                    $($($( $s: 0, )+)+)?
                    $($( $d: 0, )+)?
                }
            }

            /// The stored counters since the last `take`, reset to zero.
            pub fn take(&self) -> $Snap {
                $Snap {
                    $($( $f: self.$f.take(), )+)*
                    $($($( $s: 0, )+)+)?
                    $($( $d: 0, )+)?
                }
            }

            /// Adds a snapshot's stored counters to these.
            pub fn add(&self, s: &$Snap) {
                $($( self.$f.add(s.$f); )+)*
            }
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($Set), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $Snap {
            $($( $(#[$fmeta])* pub $f: u64, )+)*
            $($($( $(#[$smeta])* pub $s: u64, )+)+)?
            $($( $(#[$dmeta])* pub $d: u64, )+)?
        }

        impl $Snap {
            /// The declaration, in field order.
            pub const FIELDS: &'static [$crate::counters::Field] = &[
                $($( $crate::counters::Field {
                    name: stringify!($f),
                    kind: $crate::counters::Kind::Counter,
                    family: $fam,
                    help: $help,
                    labels: &[$($((stringify!($lk), $lv)),+)?],
                }, )+)*
                $($($( $crate::counters::Field {
                    name: stringify!($s),
                    kind: $crate::counter_set!(@kind $skind),
                    family: $sfam,
                    help: $shelp,
                    labels: &[$($((stringify!($slk), $slv)),+)?],
                }, )+)+)?
                $($( $crate::counters::Field {
                    name: stringify!($d),
                    kind: $crate::counters::Kind::Counter,
                    family: "",
                    help: "",
                    labels: &[],
                }, )+)?
            ];
            pub const N: usize = Self::FIELDS.len();

            /// Difference against an earlier snapshot: counters subtract,
            /// saturating at zero so a stale or reordered `earlier` cannot
            /// underflow; gauges keep this snapshot's value.
            pub fn since(&self, earlier: &Self) -> Self {
                $Snap {
                    $($( $f: self.$f.saturating_sub(earlier.$f), )+)*
                    $($($( $s: $crate::counter_set!(@kind $skind).since(self.$s, earlier.$s), )+)+)?
                    $($( $d: self.$d.saturating_sub(earlier.$d), )+)?
                }
            }

            /// The values in field order — the wire form.
            pub fn encode(&self) -> [u64; Self::N] {
                [$($( self.$f, )+)* $($($( self.$s, )+)+)? $($( self.$d, )+)?]
            }

            pub fn decode(values: [u64; Self::N]) -> Self {
                let [$($( $f, )+)* $($($( $s, )+)+)? $($( $d, )+)?] = values;
                $Snap { $($( $f, )+)* $($($( $s, )+)+)? $($( $d, )+)? }
            }

            /// Every declared field with its value here.
            pub fn rows(&self) -> Vec<$crate::counters::Row> {
                Self::FIELDS.iter().zip(self.encode()).collect()
            }
        }

        impl std::fmt::Display for $Snap {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                $crate::counters::write_stats(&self.rows(), f)
            }
        }
    };
}
