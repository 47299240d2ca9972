//! Golden memo keys: a tiny traffic grid and a tiny fleet grid run against a
//! disk-backed [`ResultStore`], then every persisted cell key is read back
//! from its segment file and compared with recorded constants.
//!
//! A change that moves a single key — or renames a segment file — turns every
//! store persisted by earlier builds cold. This test makes that loud. It also
//! pins the upgrade path from builds that persisted traces and capacity
//! searches too: their segment files stay where they are, untouched, and the
//! cells stay warm.

use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRecord, FleetRunner};
use pimba_models::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::runner::{TrafficGrid, TrafficRecord, TrafficRunner};
use pimba_serve::traffic::Scenario;
use pimba_serviced::store::ResultStore;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::memo::{Fingerprint, MemoStore};
use pimba_system::persist::{MemoValue, SegmentFile};
use std::path::Path;
use std::sync::Arc;

fn traffic_grid() -> TrafficGrid {
    TrafficGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Pimba)])
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![8.0, 16.0])
        .with_requests_per_cell(10)
        .with_seed(11)
        .with_seq_bucket(32)
}

fn fleet_grid() -> FleetGrid {
    FleetGrid::new(ModelConfig::preset(ModelFamily::Mamba2, ModelScale::Small))
        .with_systems(vec![SystemConfig::small_scale(SystemKind::Gpu)])
        .with_scenarios(vec![Scenario::chat()])
        .with_rates(vec![16.0])
        .with_replica_counts(vec![2])
        .with_routers(vec![RouterKind::RoundRobin, RouterKind::Jsq])
        .with_requests_per_cell(10)
        .with_seed(11)
}

/// The `(hi, lo)` words of every key persisted in `dir/name`, sorted.
fn keys<V: MemoValue>(dir: &Path, name: &str) -> Vec<(u64, u64)> {
    let store = MemoStore::<V>::persistent(&dir.join(name)).expect("reopen segment");
    store.keys().into_iter().map(|fp| fp.words()).collect()
}

/// The sorted file names in `dir`.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("list store")
        .map(|entry| entry.expect("entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Runs both grids against `store`; returns their records.
fn run_both(store: &ResultStore) -> (Vec<TrafficRecord>, Vec<FleetRecord>) {
    let traffic = TrafficRunner::new()
        .with_threads(1)
        .with_memo(Arc::clone(&store.traffic))
        .run(&traffic_grid());
    let fleet = FleetRunner::new()
        .with_threads(1)
        .with_memo(Arc::clone(&store.fleet))
        .run(&fleet_grid());
    (traffic, fleet)
}

#[test]
fn persisted_memo_keys_and_segment_names_are_stable() {
    let dir = std::env::temp_dir().join(format!("pimba_memo_keys_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let store = ResultStore::persistent(&dir).expect("open store");
    assert_eq!(file_names(&dir), ["fleet_cells.seg", "traffic_cells.seg"]);

    let cold = run_both(&store);
    store.sync().expect("sync");
    drop(store);

    assert_eq!(
        keys::<TrafficRecord>(&dir, "traffic_cells.seg"),
        [
            (0x5e23495d57ff47fd, 0xd317c0446962e560),
            (0xd433436a10a22397, 0x23411cceefdb7b42),
        ]
    );
    assert_eq!(
        keys::<FleetRecord>(&dir, "fleet_cells.seg"),
        [
            (0x22c31f0a186db8c4, 0x8c74adf7f82e6914),
            (0x4a13f750d80e49c6, 0x742c5963700a2581),
        ]
    );

    // Upgrade path: the trace and capacity segments an earlier build wrote
    // next to the cells, under that build's keys for these grids. The
    // payloads are opaque: the store must not read these files at all.
    let legacy: [(&str, (u64, u64)); 4] = [
        (
            "traffic_traces.seg",
            (0x67a3649cfce4e30b, 0x8f95d96415c84714),
        ),
        (
            "traffic_capacity.seg",
            (0x9afc2f2713335097, 0xc9aaaf74caacc119),
        ),
        ("fleet_traces.seg", (0x426099b6a25d5446, 0xac631ebae118eb19)),
        (
            "fleet_capacity.seg",
            (0x40fddab0adc9594f, 0x323f10f0cdc03856),
        ),
    ];
    let legacy_bytes: Vec<Vec<u8>> = legacy
        .iter()
        .map(|&(name, (hi, lo))| {
            let path = dir.join(name);
            let (mut seg, _) = SegmentFile::open(&path, |_, _| true).expect("legacy segment");
            seg.append(Fingerprint::from_words(hi, lo), name.as_bytes())
                .expect("legacy append");
            seg.sync().expect("legacy sync");
            std::fs::read(&path).expect("read legacy segment")
        })
        .collect();

    let store = ResultStore::persistent(&dir).expect("open upgraded store");
    assert_eq!(store.loaded_entries(), 4, "the four cells, nothing else");
    let warm = run_both(&store);
    assert!(warm == cold, "upgraded store must answer byte-identically");
    let (traffic_cells, fleet_cells) = (store.traffic.stats(), store.fleet.stats());
    assert_eq!((traffic_cells.misses, fleet_cells.misses), (0, 0));
    store.sync().expect("sync");
    drop(store);
    for (&(name, _), bytes) in legacy.iter().zip(&legacy_bytes) {
        assert_eq!(
            &std::fs::read(dir.join(name)).expect("legacy segment kept"),
            bytes,
            "{name} must be left as it was"
        );
    }
    assert_eq!(file_names(&dir).len(), 6, "no file added or removed");
    let _ = std::fs::remove_dir_all(&dir);
}
