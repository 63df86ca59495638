//! A tour of the query toolbox on one dataset: plain kNN, a radius query,
//! and the explain trace of the branch-and-bound decisions.
//!
//! ```text
//! cargo run -p nnq-examples --release --bin query_toolbox
//! ```

use nnq_core::{within_radius, MbrRefiner, NnSearch};
use nnq_examples::meters;
use nnq_geom::{Point, Rect};
use nnq_rtree::{MemRTree, RecordId};
use nnq_workloads::{default_bounds, gaussian_clusters};

fn main() {
    let bounds = default_bounds();
    let sites = gaussian_clusters(30_000, 48, 1_800.0, &bounds, 33);
    let tree = MemRTree::<2>::new();
    for (i, p) in sites.iter().enumerate() {
        tree.insert(&Rect::from_point(*p), RecordId(i as u64))
            .expect("insert");
    }
    println!("Indexed {} sites in memory.", tree.len());
    let me = Point::new([52_000.0, 47_000.0]);
    let search = NnSearch::new(&tree);

    // 1. Plain kNN.
    let nn = search.query(&me, 3).expect("knn");
    println!("\n3 nearest sites:");
    for n in &nn {
        println!("  #{:<6} at {}", n.record.0, meters(n.dist_sq));
    }

    // 2. Everything within 6 km.
    let (close, stats) = within_radius(&tree, &me, 6_000.0, &MbrRefiner).expect("radius");
    println!(
        "\n{} sites within 6 km ({} nodes read).",
        close.len(),
        stats.nodes_visited
    );

    // 3. Explain: watch the branch-and-bound decisions for a 1-NN query.
    let (_, stats, trace) = search.query_traced(&me, 1, &MbrRefiner).expect("trace");
    println!(
        "\nExplain (1-NN): {} nodes entered, {} branches pruned; first events:",
        trace.nodes_entered(),
        stats.pruned_total()
    );
    for line in trace.render().lines().take(8) {
        println!("  {line}");
    }
}
