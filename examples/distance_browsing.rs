//! Distance browsing: iterate neighbors outward until a *predicate* is
//! satisfied, without choosing k in advance.
//!
//! Scenario: find the three nearest charging stations that are currently
//! available, where availability is only known by consulting an external
//! table — so the number of index results needed is not known up front.
//! The incremental iterator reads just enough of the tree.
//!
//! ```text
//! cargo run -p nnq-examples --release --bin distance_browsing
//! ```

use nnq_core::{IncrementalNn, MbrRefiner, NnOptions};
use nnq_examples::{example_pool, meters};
use nnq_geom::Point;
use nnq_rtree::{RTree, RTreeConfig};
use nnq_workloads::{default_bounds, gaussian_clusters, points_to_items};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let bounds = default_bounds();
    let stations = gaussian_clusters(25_000, 40, 2_000.0, &bounds, 21);
    let items = points_to_items(&stations);

    let tree = RTree::<2>::create(example_pool(), RTreeConfig::default()).expect("create tree");
    for (mbr, rid) in &items {
        tree.insert(mbr, *rid).expect("insert");
    }
    let total_nodes = tree.stats().expect("stats").nodes;
    println!(
        "Indexed {} charging stations ({total_nodes} pages).",
        tree.len()
    );

    // External availability table: ~30% of stations are free right now.
    let mut rng = StdRng::seed_from_u64(5);
    let available: Vec<bool> = (0..stations.len()).map(|_| rng.random_bool(0.3)).collect();

    let me = Point::new([48_000.0, 52_000.0]);
    println!(
        "\nSearching outward from ({:.0}, {:.0}) for 3 *available* stations:",
        me[0], me[1]
    );

    let mut iter = IncrementalNn::new(&tree, me, NnOptions::default(), MbrRefiner);
    let mut found = 0;
    let mut examined = 0;
    while found < 3 {
        let neighbor = iter
            .next()
            .expect("world has more stations")
            .expect("query ok");
        examined += 1;
        let id = neighbor.record.0 as usize;
        if available[id] {
            found += 1;
            println!(
                "  {}. station #{:<6} at ({:7.0},{:7.0})  {}",
                found,
                id,
                stations[id][0],
                stations[id][1],
                meters(neighbor.dist_sq)
            );
        }
    }
    println!(
        "\nExamined {examined} candidates in distance order; read {} of {} \
         index pages — k was never chosen in advance.",
        iter.stats().nodes_visited,
        total_nodes
    );
}
