//! The paper's marketplace schema: the exact Figure 1 graph, and a
//! scalable synthetic marketplace in the same shape.

use cypher_graph::{NodeId, PropertyGraph, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Handles to the named nodes of Figure 1 (solid lines only).
#[derive(Clone, Copy, Debug)]
pub struct Figure1Nodes {
    pub v1: NodeId,
    pub p1: NodeId,
    pub p2: NodeId,
    pub p3: NodeId,
    pub u1: NodeId,
    pub u2: NodeId,
}

/// Build the Figure 1 base graph (solid lines): one vendor, three products
/// (two sharing the dirty id 125), two users, and the six relationships.
pub fn figure1_graph() -> (PropertyGraph, Figure1Nodes) {
    let mut g = PropertyGraph::new();
    let product = g.sym("Product");
    let vendor = g.sym("Vendor");
    let user = g.sym("User");
    let offers = g.sym("OFFERS");
    let ordered = g.sym("ORDERED");
    let id_k = g.sym("id");
    let name_k = g.sym("name");

    let v1 = crate::node(
        &mut g,
        [vendor],
        [(id_k, Value::Int(60)), (name_k, Value::str("cStore"))],
    );
    let p1 = crate::node(
        &mut g,
        [product],
        [(id_k, Value::Int(125)), (name_k, Value::str("laptop"))],
    );
    let p2 = crate::node(
        &mut g,
        [product],
        [(id_k, Value::Int(125)), (name_k, Value::str("notebook"))],
    );
    let p3 = crate::node(
        &mut g,
        [product],
        [(id_k, Value::Int(85)), (name_k, Value::str("tablet"))],
    );
    let u1 = crate::node(
        &mut g,
        [user],
        [(id_k, Value::Int(89)), (name_k, Value::str("Bob"))],
    );
    let u2 = crate::node(
        &mut g,
        [user],
        [(id_k, Value::Int(99)), (name_k, Value::str("Jane"))],
    );
    crate::link(&mut g, v1, offers, p1);
    crate::link(&mut g, v1, offers, p2);
    crate::link(&mut g, u1, ordered, p1);
    crate::link(&mut g, u1, ordered, p3);
    crate::link(&mut g, u2, ordered, p3);
    crate::link(&mut g, u2, offers, p3);

    (
        g,
        Figure1Nodes {
            v1,
            p1,
            p2,
            p3,
            u1,
            u2,
        },
    )
}

/// Parameters for the scalable marketplace generator.
#[derive(Clone, Copy, Debug)]
pub struct MarketplaceConfig {
    pub users: usize,
    pub vendors: usize,
    pub products: usize,
    /// Total `:ORDERED` relationships (user → product).
    pub orders: usize,
    /// Total `:OFFERS` relationships (vendor → product).
    pub offers: usize,
    pub seed: u64,
}

impl Default for MarketplaceConfig {
    fn default() -> Self {
        MarketplaceConfig {
            users: 100,
            vendors: 10,
            products: 200,
            orders: 500,
            offers: 250,
            seed: 42,
        }
    }
}

/// Generate a marketplace graph in the Figure 1 schema. Every product is
/// offered by at least its "home" vendor so that Query (5)-style `MERGE`
/// has matches as well as misses.
pub fn marketplace_graph(cfg: &MarketplaceConfig) -> PropertyGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = PropertyGraph::new();
    let product = g.sym("Product");
    let vendor = g.sym("Vendor");
    let user = g.sym("User");
    let offers = g.sym("OFFERS");
    let ordered = g.sym("ORDERED");
    let id_k = g.sym("id");
    let name_k = g.sym("name");
    let price_k = g.sym("price");

    let users: Vec<NodeId> = (0..cfg.users)
        .map(|i| {
            crate::node(
                &mut g,
                [user],
                [
                    (id_k, Value::Int(i as i64)),
                    (name_k, Value::Str(format!("user-{i}"))),
                ],
            )
        })
        .collect();
    let vendors: Vec<NodeId> = (0..cfg.vendors)
        .map(|i| {
            crate::node(
                &mut g,
                [vendor],
                [
                    (id_k, Value::Int(1_000 + i as i64)),
                    (name_k, Value::Str(format!("vendor-{i}"))),
                ],
            )
        })
        .collect();
    let products: Vec<NodeId> = (0..cfg.products)
        .map(|i| {
            crate::node(
                &mut g,
                [product],
                [
                    (id_k, Value::Int(10_000 + i as i64)),
                    (name_k, Value::Str(format!("product-{i}"))),
                    (price_k, Value::Int(rng.gen_range(1..=2_000))),
                ],
            )
        })
        .collect();

    if !vendors.is_empty() {
        for (i, &p) in products.iter().enumerate() {
            let home = vendors[i % vendors.len()];
            crate::link(&mut g, home, offers, p);
        }
        for _ in products.len()..cfg.offers {
            let v = vendors[rng.gen_range(0..vendors.len())];
            let p = products[rng.gen_range(0..products.len())];
            crate::link(&mut g, v, offers, p);
        }
    }
    if !users.is_empty() && !products.is_empty() {
        for _ in 0..cfg.orders {
            let u = users[rng.gen_range(0..users.len())];
            let p = products[rng.gen_range(0..products.len())];
            crate::link(&mut g, u, ordered, p);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_graph::GraphSummary;

    #[test]
    fn figure1_shape() {
        let (g, ids) = figure1_graph();
        let s = GraphSummary::of(&g);
        assert_eq!(s.nodes, 6);
        assert_eq!(s.rels, 6);
        assert_eq!(s.labels["Product"], 3);
        assert_eq!(s.types["OFFERS"], 3);
        assert_eq!(s.types["ORDERED"], 3);
        // Dirty data: p1 and p2 share id 125.
        let id_k = g.try_sym("id").unwrap();
        assert_eq!(g.prop(ids.p1.into(), id_k), Value::Int(125));
        assert_eq!(g.prop(ids.p2.into(), id_k), Value::Int(125));
    }

    #[test]
    fn marketplace_is_deterministic_per_seed() {
        let cfg = MarketplaceConfig::default();
        let a = GraphSummary::of(&marketplace_graph(&cfg));
        let b = GraphSummary::of(&marketplace_graph(&cfg));
        assert_eq!(a, b);
        let c = GraphSummary::of(&marketplace_graph(&MarketplaceConfig { seed: 7, ..cfg }));
        assert_eq!(a.nodes, c.nodes); // same sizes…
    }

    #[test]
    fn marketplace_respects_config() {
        let cfg = MarketplaceConfig {
            users: 5,
            vendors: 2,
            products: 10,
            orders: 20,
            offers: 15,
            seed: 1,
        };
        let g = marketplace_graph(&cfg);
        let s = GraphSummary::of(&g);
        assert_eq!(s.nodes, 17);
        assert_eq!(s.types["ORDERED"], 20);
        assert_eq!(s.types["OFFERS"], 15);
        g.integrity_check().unwrap();
    }

    #[test]
    fn every_product_has_an_offer() {
        let g = marketplace_graph(&MarketplaceConfig::default());
        let product = g.try_sym("Product").unwrap();
        for p in g.nodes_with_label(product).collect::<Vec<_>>() {
            assert!(
                !g.rels_of(p, cypher_graph::Direction::Incoming).is_empty(),
                "product {p} has no offer"
            );
        }
    }
}
