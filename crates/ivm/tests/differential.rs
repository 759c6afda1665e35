//! Differential oracle for incremental view maintenance: after every
//! committed statement, each maintained view's rows must be byte-identical
//! to a fresh full evaluation of the registered query on the committed
//! graph — and a client replaying the emitted row deltas must converge on
//! exactly the same multiset.

use std::collections::BTreeMap;

use cypher_core::Engine;
use cypher_graph::{PropertyGraph, Value};
use cypher_ivm::{Delta, ViewManager};

/// Deterministic xorshift64* — the suite must replay identically.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

type Bag = BTreeMap<String, (Vec<Value>, u64)>;

fn bag_from(rows: &[Vec<Value>]) -> Bag {
    let mut bag = Bag::new();
    for row in rows {
        let e = bag
            .entry(format!("{row:?}"))
            .or_insert_with(|| (row.clone(), 0));
        e.1 += 1;
    }
    bag
}

fn bag_to_sorted(bag: &Bag) -> Vec<(Vec<Value>, u64)> {
    bag.values().map(|(r, n)| (r.clone(), *n)).collect()
}

/// The registered view set: everything the maintainable grammar covers,
/// plus one deliberate fallback (ORDER BY).
const VIEWS: &[(&str, bool)] = &[
    ("MATCH (n:Person) RETURN n.name", true),
    (
        "MATCH (n:Person) WHERE n.age > 30 RETURN n.name, n.age",
        true,
    ),
    ("MATCH (n:Person) RETURN n.city, count(*)", true),
    (
        "MATCH (a:Person)-[r:KNOWS]->(b:Person) RETURN a.name, b.name, r.w",
        true,
    ),
    (
        "MATCH (a:Person)-[r:KNOWS]-(b:Person) RETURN a.name, b.name",
        true,
    ),
    (
        "MATCH (a:Person)-[r:KNOWS]->(b:Person) RETURN DISTINCT a.city",
        true,
    ),
    (
        "MATCH (a:Person)-[r:KNOWS]->(b:Person), (c:Vip) RETURN a.name, c.name",
        true,
    ),
    ("MATCH (n:Person) RETURN n.name ORDER BY n.name", false),
    ("MATCH (n:Person) RETURN sum(n.age), min(n.name)", true),
];

struct Driver {
    rng: Rng,
    next_name: u64,
    live: Vec<String>,
}

impl Driver {
    fn pick(&mut self) -> Option<String> {
        if self.live.is_empty() {
            return None;
        }
        let i = self.rng.below(self.live.len() as u64) as usize;
        Some(self.live[i].clone())
    }

    fn statement(&mut self) -> Option<String> {
        match self.rng.below(12) {
            0..=2 => {
                let name = format!("p{}", self.next_name);
                self.next_name += 1;
                let age = self.rng.below(60) + 10;
                let city = format!("c{}", self.rng.below(4));
                self.live.push(name.clone());
                Some(format!(
                    "CREATE (:Person {{name: '{name}', age: {age}, city: '{city}'}})"
                ))
            }
            3 | 4 => {
                let a = self.pick()?;
                let b = self.pick()?;
                let w = self.rng.below(9);
                Some(format!(
                    "MATCH (a:Person {{name: '{a}'}}), (b:Person {{name: '{b}'}}) \
                     CREATE (a)-[:KNOWS {{w: {w}}}]->(b)"
                ))
            }
            5 => {
                let a = self.pick()?;
                let age = self.rng.below(60) + 10;
                Some(format!(
                    "MATCH (n:Person {{name: '{a}'}}) SET n.age = {age}"
                ))
            }
            6 => {
                let a = self.pick()?;
                Some(format!("MATCH (n:Person {{name: '{a}'}}) SET n.age = null"))
            }
            7 => {
                let a = self.pick()?;
                Some(format!("MATCH (n:Person {{name: '{a}'}}) SET n:Vip"))
            }
            8 => {
                let a = self.pick()?;
                Some(format!("MATCH (n:Person {{name: '{a}'}}) REMOVE n:Vip"))
            }
            9 => {
                let a = self.pick()?;
                Some(format!(
                    "MATCH (a:Person {{name: '{a}'}})-[r:KNOWS]->() DELETE r"
                ))
            }
            10 => {
                let a = self.pick()?;
                self.live.retain(|n| *n != a);
                Some(format!("MATCH (n:Person {{name: '{a}'}}) DETACH DELETE n"))
            }
            _ => {
                // Revised dialect: deleting a connected node errors and the
                // whole statement rolls back — the captured delta must be
                // empty and no view may move.
                let a = self.pick()?;
                Some(format!("MATCH (n:Person {{name: '{a}'}}) DELETE n"))
            }
        }
    }
}

fn run_campaign(seed: u64, steps: usize) {
    let engine = Engine::revised();
    let mut g = PropertyGraph::new();

    // Seed a small graph before registration so views start non-empty.
    let mut driver = Driver {
        rng: Rng(seed | 1),
        next_name: 0,
        live: Vec::new(),
    };
    for _ in 0..6 {
        let name = format!("p{}", driver.next_name);
        driver.next_name += 1;
        driver.live.push(name.clone());
        engine
            .run(
                &mut g,
                &format!(
                    "CREATE (:Person {{name: '{name}', age: {}, city: 'c0'}})",
                    20 + driver.next_name
                ),
            )
            .expect("seed create");
    }
    engine
        .run(
            &mut g,
            "MATCH (a:Person {name: 'p0'}), (b:Person {name: 'p1'}) CREATE (a)-[:KNOWS {w: 1}]->(b)",
        )
        .expect("seed rel");

    g.enable_delta_capture();
    let mut mgr = ViewManager::new(&g, 0);
    let mut ids = Vec::new();
    let mut replayed: BTreeMap<u64, Bag> = BTreeMap::new();
    for (text, incremental) in VIEWS {
        let reg = mgr.register(text, &engine).expect("register view");
        assert_eq!(
            !reg.fallback, *incremental,
            "registration mode for {text:?}"
        );
        let mut bag = Bag::new();
        for (row, n) in &reg.rows {
            bag.insert(format!("{row:?}"), (row.clone(), *n));
        }
        replayed.insert(reg.id, bag);
        ids.push((reg.id, *text));
    }

    let mut seq = 0u64;
    for _ in 0..steps {
        let Some(stmt) = driver.statement() else {
            continue;
        };
        let outcome = engine.run(&mut g, &stmt);
        let ops = Delta::from_ops(&g.take_delta(), &g);
        if outcome.is_err() {
            assert!(
                ops.is_empty(),
                "rolled-back statement leaked delta ops: {stmt:?} -> {ops:?}"
            );
        }
        seq += 1;
        let updates = mgr
            .apply_statement(seq, &ops)
            .expect("delta replay diverged from shadow");
        for update in &updates {
            let bag = replayed.get_mut(&update.view).expect("known view");
            for (row, n) in &update.removes {
                let key = format!("{row:?}");
                let e = bag.get_mut(&key).expect("remove of a present row");
                assert!(e.1 >= *n, "remove count exceeds multiplicity");
                e.1 -= *n;
                if e.1 == 0 {
                    bag.remove(&key);
                }
            }
            for (row, n) in &update.adds {
                let e = bag
                    .entry(format!("{row:?}"))
                    .or_insert_with(|| (row.clone(), 0));
                e.1 += *n;
            }
        }
        // The differential oracle proper: maintained rows == fresh full
        // evaluation, and the client replay == maintained rows.
        for (id, text) in &ids {
            let maintained = mgr.rows(*id).expect("registered view");
            let fresh = engine.run_read(&g, text).expect("full evaluation");
            assert_eq!(
                maintained,
                bag_to_sorted(&bag_from(&fresh.rows)),
                "view {text:?} diverged after {stmt:?} (seq {seq})"
            );
            assert_eq!(
                maintained,
                bag_to_sorted(replayed.get(id).expect("replay bag")),
                "client replay of {text:?} diverged after {stmt:?} (seq {seq})"
            );
        }
    }

    // No silent demotions: a demotion means the maintained pipeline hit an
    // evaluation error the full pipeline did not, which this suite treats
    // as a bug.
    for stat in mgr.stats() {
        let declared = VIEWS
            .iter()
            .find(|(t, _)| *t == stat.query)
            .map(|(_, inc)| *inc)
            .expect("stat for a registered view");
        assert_eq!(
            stat.incremental, declared,
            "view {:?} changed maintenance mode mid-run",
            stat.query
        );
        assert!(!stat.broken, "view {:?} ended broken", stat.query);
    }
}

#[test]
fn differential_oracle_seed_1() {
    run_campaign(0x9E3779B97F4A7C15, 120);
}

#[test]
fn differential_oracle_seed_2() {
    run_campaign(0xD1B54A32D192ED03, 120);
}

#[test]
fn differential_oracle_seed_3() {
    run_campaign(0x8CB92BA72F3D8DD7, 120);
}

/// Unregistering stops delta emission for that view only.
#[test]
fn unregister_stops_updates() {
    let engine = Engine::revised();
    let mut g = PropertyGraph::new();
    engine
        .run(&mut g, "CREATE (:Person {name: 'a'})")
        .expect("seed");
    g.enable_delta_capture();
    let mut mgr = ViewManager::new(&g, 0);
    let first = mgr
        .register("MATCH (n:Person) RETURN n.name", &engine)
        .expect("register");
    let second = mgr
        .register("MATCH (n:Person) RETURN count(*)", &engine)
        .expect("register");
    assert!(mgr.unregister(first.id));
    assert!(!mgr.unregister(first.id));
    engine
        .run(&mut g, "CREATE (:Person {name: 'b'})")
        .expect("write");
    let ops = Delta::from_ops(&g.take_delta(), &g);
    let updates = mgr.apply_statement(1, &ops).expect("apply");
    assert_eq!(updates.len(), 1);
    assert_eq!(updates[0].view, second.id);
    assert!(mgr.rows(first.id).is_none());
}

/// A view whose evaluation errors parks on its previous rows, reports
/// broken, and recovers when the data allows it again.
#[test]
fn broken_view_parks_and_recovers() {
    let engine = Engine::revised();
    let mut g = PropertyGraph::new();
    engine
        .run(&mut g, "CREATE (:Counter {v: 1})")
        .expect("seed");
    g.enable_delta_capture();
    let mut mgr = ViewManager::new(&g, 0);
    // `1 / v` errors exactly when some v is 0 (division by zero).
    let reg = mgr
        .register("MATCH (n:Counter) RETURN 1 / n.v", &engine)
        .expect("register");
    engine
        .run(&mut g, "MATCH (n:Counter) SET n.v = 0")
        .expect("write");
    let ops = Delta::from_ops(&g.take_delta(), &g);
    mgr.apply_statement(1, &ops).expect("apply");
    assert!(
        mgr.last_error(reg.id).is_some(),
        "view should be broken while v = 0"
    );
    // Previous rows are parked.
    assert_eq!(mgr.rows(reg.id).expect("rows").len(), 1);
    engine
        .run(&mut g, "MATCH (n:Counter) SET n.v = 2")
        .expect("write");
    let ops = Delta::from_ops(&g.take_delta(), &g);
    mgr.apply_statement(2, &ops).expect("apply");
    assert!(mgr.last_error(reg.id).is_none(), "view should recover");
    let fresh = engine
        .run_read(&g, "MATCH (n:Counter) RETURN 1 / n.v")
        .expect("read");
    assert_eq!(
        mgr.rows(reg.id).expect("rows"),
        bag_to_sorted(&bag_from(&fresh.rows))
    );
}
