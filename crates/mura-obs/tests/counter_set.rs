//! The counter-set form, used the way the other crates use it: through the
//! exported macro, from outside `mura-obs`.

use mura_obs::counters::{json_object, write_stats, Kind};
use mura_obs::{counter_set, PromText};

counter_set! {
    /// A set with every part of a table.
    pub struct DoorStats => DoorSnapshot {
        counter "door_events_total", "Door events by kind." {
            /// Times the door opened.
            opened {event = "open", side = "in"},
            closed {event = "close", side = "in"},
        }
        counter "door_knocks_total", "Knocks." { knocks }
        supplied {
            gauge "door_ajar", "1 while the door is open." { ajar }
            counter "door_visitors_total", "Visitors, counted by the hall." { visitors }
        }
        derived { events }
    }
}

counter_set! {
    struct Bare => BareSnapshot {
        counter "bare_total", "Only stored counters." { a, b }
    }
}

static DOORS: DoorStats = DoorStats::new();

#[test]
fn a_static_set_is_const_initialised_and_counts() {
    DOORS.opened.inc();
    DOORS.knocks.add(3);
    let s = DOORS.snapshot();
    assert_eq!((s.opened, s.closed, s.knocks), (1, 0, 3));
    assert_eq!((s.ajar, s.visitors, s.events), (0, 0, 0), "supplied and derived start at zero");
}

#[test]
fn since_subtracts_counters_saturating_and_keeps_gauges() {
    let earlier = DoorSnapshot { opened: 5, closed: 2, knocks: 9, ajar: 1, visitors: 4, events: 7 };
    let later = DoorSnapshot { opened: 8, closed: 1, knocks: 9, ajar: 0, visitors: 6, events: 9 };
    let d = later.since(&earlier);
    assert_eq!(
        d,
        DoorSnapshot { opened: 3, closed: 0, knocks: 0, ajar: 0, visitors: 2, events: 2 }
    );
    // Against a *later* snapshot a counter that is behind saturates at
    // zero; the gauge stays.
    let back = earlier.since(&later);
    assert_eq!(back, DoorSnapshot { closed: 1, ajar: 1, ..Default::default() });
}

#[test]
fn add_sums_stored_counters_and_take_resets_them() {
    let set = DoorStats::new();
    let s = DoorSnapshot { opened: 2, closed: 1, knocks: 4, ajar: 1, visitors: 9, events: 3 };
    set.add(&s);
    set.add(&s);
    let stored = DoorSnapshot { opened: 4, closed: 2, knocks: 8, ..Default::default() };
    assert_eq!(set.snapshot(), stored, "supplied and derived fields are not stored");
    assert_eq!(set.take(), stored);
    assert_eq!(set.snapshot(), DoorSnapshot::default());
}

#[test]
fn the_wire_form_round_trips_in_field_order() {
    let s = DoorSnapshot { opened: 1, closed: 2, knocks: 3, ajar: 4, visitors: 5, events: 6 };
    assert_eq!(DoorSnapshot::N, 6);
    assert_eq!(s.encode(), [1, 2, 3, 4, 5, 6]);
    assert_eq!(DoorSnapshot::decode(s.encode()), s);
    assert_eq!(BareSnapshot::decode([7, 8]), BareSnapshot { a: 7, b: 8 });
    assert_eq!(Bare::new().snapshot().since(&BareSnapshot { a: 1, b: 1 }), BareSnapshot::default());
}

#[test]
fn fields_carry_the_declaration() {
    let names: Vec<_> = DoorSnapshot::FIELDS.iter().map(|f| f.name).collect();
    assert_eq!(names, ["opened", "closed", "knocks", "ajar", "visitors", "events"]);
    let f = &DoorSnapshot::FIELDS[0];
    assert_eq!(
        (f.family, f.help, f.kind),
        ("door_events_total", "Door events by kind.", Kind::Counter)
    );
    assert_eq!(f.series(), "door_events_total{event=\"open\",side=\"in\"}");
    assert_eq!(DoorSnapshot::FIELDS[2].series(), "door_knocks_total");
    assert_eq!(DoorSnapshot::FIELDS[3].kind, Kind::Gauge);
    assert_eq!(DoorSnapshot::FIELDS[4].kind, Kind::Counter);
    assert_eq!(DoorSnapshot::FIELDS[5].family, "", "derived fields have no family");
}

#[test]
fn the_three_renderings_come_from_the_rows() {
    let s = DoorSnapshot { opened: 1, closed: 2, knocks: 3, ajar: 1, visitors: 5, events: 3 };
    let mut text = String::new();
    write_stats(&s.rows(), &mut text).unwrap();
    assert_eq!(
        text,
        "door_events_total                open in 1 / close in 2\n\
         door_knocks_total                3\n\
         door_ajar                        1\n\
         door_visitors_total              5\n"
    );
    assert_eq!(s.to_string(), text, "Display is the .stats text");

    let mut p = PromText::new();
    p.rows(&s.rows());
    assert_eq!(
        p.finish(),
        "# HELP door_events_total Door events by kind.\n\
         # TYPE door_events_total counter\n\
         door_events_total{event=\"open\",side=\"in\"} 1\n\
         door_events_total{event=\"close\",side=\"in\"} 2\n\
         # HELP door_knocks_total Knocks.\n\
         # TYPE door_knocks_total counter\n\
         door_knocks_total 3\n\
         # HELP door_ajar 1 while the door is open.\n\
         # TYPE door_ajar gauge\n\
         door_ajar 1\n\
         # HELP door_visitors_total Visitors, counted by the hall.\n\
         # TYPE door_visitors_total counter\n\
         door_visitors_total 5\n"
    );

    assert_eq!(
        json_object(&s.rows()),
        "{\"opened\": 1, \"closed\": 2, \"knocks\": 3, \"ajar\": 1, \"visitors\": 5, \"events\": 3}"
    );
}
