//! Golden memo keys: a tiny traffic grid and a tiny fleet grid run against a
//! disk-backed [`ResultStore`], then every persisted trace, capacity and cell
//! key is read back from its segment file and compared with recorded
//! constants.
//!
//! A change that moves a single key — or renames a segment file — turns every
//! store persisted by earlier builds cold. This test makes that loud.

use pimba_fleet::router::RouterKind;
use pimba_fleet::runner::{FleetGrid, FleetRecord, FleetRunner};
use pimba_models::{ModelConfig, ModelFamily, ModelScale};
use pimba_serve::runner::{TrafficGrid, TrafficRecord, TrafficRunner};
use pimba_serve::traffic::{Scenario, Trace};
use pimba_serviced::store::ResultStore;
use pimba_system::config::{SystemConfig, SystemKind};
use pimba_system::memo::MemoStore;
use pimba_system::persist::MemoValue;
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

#[test]
fn persisted_memo_keys_and_segment_names_are_stable() {
    let dir = std::env::temp_dir().join(format!("pimba_memo_keys_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let store = ResultStore::persistent(&dir).expect("open store");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("list store")
        .map(|entry| entry.expect("entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "fleet_capacity.seg",
            "fleet_cells.seg",
            "fleet_traces.seg",
            "traffic_capacity.seg",
            "traffic_cells.seg",
            "traffic_traces.seg",
        ]
    );

    TrafficRunner::new()
        .with_threads(1)
        .with_memo(Arc::clone(&store.traffic))
        .run(&traffic_grid());
    FleetRunner::new()
        .with_threads(1)
        .with_memo(Arc::clone(&store.fleet))
        .run(&fleet_grid());
    store.sync().expect("sync");
    drop(store);

    assert_eq!(
        keys::<Trace>(&dir, "traffic_traces.seg"),
        [
            (0x67a3649cfce4e30b, 0x8f95d96415c84714),
            (0xa851269bc2c55bbd, 0x30b023f7bc57773f),
        ]
    );
    assert_eq!(
        keys::<usize>(&dir, "traffic_capacity.seg"),
        [(0x9afc2f2713335097, 0xc9aaaf74caacc119)]
    );
    assert_eq!(
        keys::<TrafficRecord>(&dir, "traffic_cells.seg"),
        [
            (0xe53927c568fda350, 0xf0b792de24b9f4cf),
            (0xefb9fc44bc842519, 0x63a72eecb4d7f07d),
        ]
    );
    assert_eq!(
        keys::<Trace>(&dir, "fleet_traces.seg"),
        [(0x426099b6a25d5446, 0xac631ebae118eb19)]
    );
    assert_eq!(
        keys::<usize>(&dir, "fleet_capacity.seg"),
        [(0x40fddab0adc9594f, 0x323f10f0cdc03856)]
    );
    assert_eq!(
        keys::<FleetRecord>(&dir, "fleet_cells.seg"),
        [
            (0x4b97aabb3fdaf40e, 0x2eb9f58e673e0f3c),
            (0xfbf7eedb3f1bf925, 0xf9f05da67e8a0b43),
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}
