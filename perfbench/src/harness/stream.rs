//! Seeded statement streams.
//!
//! A stream is an endless, deterministic sequence of Cypher statement
//! texts. The *shape* of a stream — which kind of statement comes at which
//! position — is a fixed cycle, so two runs of one workload always do the
//! same mix of work and a duration-bound run is not at the mercy of a
//! random read/write ratio. The seed chooses the keys and values only.
//!
//! Each client of a workload owns a *partition* of the user ids (`id %
//! parts == part`) and writes only there, and every read returns data that
//! only its own partition's writes can change. That is what lets the
//! oracle replay each client's stream on its own and still predict every
//! row the server returned, whatever order the server interleaved the
//! clients in.

use std::collections::VecDeque;

/// SplitMix64: small, seedable, and good enough to pick keys with.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`0` when `n` is 0). The modulo bias is far below
    /// anything a benchmark key distribution could notice.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// An independent generator for a sub-stream (one per client).
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }
}

/// What a statement does; also the latency class it is reported under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Indexed point read of one user.
    ReadPoint,
    /// Typed two-hop `Vendor-OFFERS->Product<-ORDERED-User{id}`.
    Read2Hop,
    /// Label-scan aggregate over every product.
    ReadScan,
    /// `SET` one property of one user.
    WriteSet,
    /// `CREATE` one `:ORDERED` relationship between two matched nodes.
    WriteRel,
    /// `CREATE` a `:Tmp` node hanging off a user.
    WriteTmp,
    /// `DETACH DELETE` a `:Tmp` node the stream created earlier.
    WriteDel,
    /// `CREATE` a relationship and `SET` the score in one statement.
    WriteRelSet,
}

impl OpKind {
    pub fn is_read(self) -> bool {
        matches!(
            self,
            OpKind::ReadPoint | OpKind::Read2Hop | OpKind::ReadScan
        )
    }
}

/// One generated statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stmt {
    pub kind: OpKind,
    pub text: String,
}

/// The fixed cycles. Each is documented where the workload that uses it is
/// defined (`workload.rs`); the constants live here so the determinism
/// tests cover them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 50/50 over a sixteen-statement cycle whose runs of reads and of
    /// writes have uneven lengths, and each client starts it at its own
    /// offset. Two closed-loop clients on a strictly alternating cycle can
    /// settle into a fixed step — always writing together (one group
    /// commit, one shared publish) or always taking turns (a publish per
    /// write) — and which one would decide what a write costs; an uneven
    /// cycle walks through every relative position instead.
    OltpMix,
    /// Reads only: point and two-hop alternate, one scan per sixteen.
    ReadOnly,
    /// Writes only, the four small write kinds in turn.
    WriteOnly,
    /// Point and two-hop reads in turn.
    PointAnd2Hop,
    /// Writes that each change the score of one user, every second one
    /// also creating an `:ORDERED` relationship.
    ViewWriter,
}

impl Shape {
    fn cycle(self) -> &'static [OpKind] {
        use OpKind::*;
        match self {
            Shape::OltpMix => &[
                ReadPoint, WriteSet, WriteRel, Read2Hop, ReadPoint, WriteTmp, Read2Hop, WriteDel,
                WriteSet, ReadPoint, WriteRel, Read2Hop, ReadPoint, Read2Hop, WriteTmp, WriteDel,
            ],
            Shape::ReadOnly => &[
                ReadPoint, Read2Hop, ReadPoint, Read2Hop, ReadPoint, Read2Hop, ReadPoint, Read2Hop,
                ReadPoint, Read2Hop, ReadPoint, Read2Hop, ReadPoint, Read2Hop, ReadPoint, ReadScan,
            ],
            Shape::WriteOnly => &[WriteSet, WriteRel, WriteTmp, WriteDel],
            Shape::PointAnd2Hop => &[ReadPoint, Read2Hop],
            Shape::ViewWriter => &[WriteSet, WriteRelSet],
        }
    }
}

/// The key space of a preloaded marketplace graph (see
/// `cypher_datagen::marketplace_graph`: user ids start at 0, product ids
/// at 10 000).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeySpace {
    pub users: u64,
    pub products: u64,
}

pub const PRODUCT_ID_BASE: u64 = 10_000;
/// `:Tmp` ids start far above every generated id.
const TMP_ID_BASE: u64 = 1_000_000_000;

pub const READ_POINT: &str = "RETURN u.id AS id, u.name AS name, u.score AS score";
pub const SCAN_TEXT: &str = "MATCH (p:Product) RETURN count(*) AS n, avg(p.price) AS avg_price";

/// An endless deterministic statement stream for one client.
#[derive(Clone, Debug)]
pub struct StatementStream {
    rng: Rng,
    shape: Shape,
    keys: KeySpace,
    part: u64,
    parts: u64,
    pos: u64,
    /// `:Tmp` ids created and not yet deleted, oldest first.
    live_tmp: VecDeque<u64>,
    next_tmp: u64,
}

impl StatementStream {
    /// The stream of client `part` of `parts` under `seed`.
    pub fn new(shape: Shape, keys: KeySpace, seed: u64, part: u64, parts: u64) -> StatementStream {
        let parts = parts.max(1);
        StatementStream {
            rng: Rng::new(seed).fork(part + 1),
            shape,
            keys,
            part: part % parts,
            parts,
            // Clients enter the cycle evenly spread over it.
            pos: (part % parts) * shape.cycle().len() as u64 / parts,
            live_tmp: VecDeque::new(),
            next_tmp: 0,
        }
    }

    /// Where the next statement sits in the endless repetition of the
    /// cycle (clients start at different offsets); unique per statement.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// A user id in this client's partition.
    fn user(&mut self) -> u64 {
        let slots = (self.keys.users / self.parts).max(1);
        self.part + self.parts * self.rng.below(slots)
    }

    fn product(&mut self) -> u64 {
        PRODUCT_ID_BASE + self.rng.below(self.keys.products.max(1))
    }

    /// The next statement of the stream.
    pub fn next_stmt(&mut self) -> Stmt {
        let cycle = self.shape.cycle();
        let kind = cycle[(self.pos % cycle.len() as u64) as usize];
        self.pos += 1;
        let text = match kind {
            OpKind::ReadPoint => {
                format!("MATCH (u:User {{id: {}}}) {READ_POINT}", self.user())
            }
            OpKind::Read2Hop => format!(
                "MATCH (v:Vendor)-[:OFFERS]->(p:Product)<-[:ORDERED]-(u:User {{id: {}}}) \
                 RETURN v.id AS vendor, p.id AS product",
                self.user()
            ),
            OpKind::ReadScan => SCAN_TEXT.to_owned(),
            OpKind::WriteSet => {
                // View streams need every statement to change the score, so
                // theirs only ever grows; elsewhere any value will do.
                let score = if self.shape == Shape::ViewWriter {
                    1_000 + self.pos
                } else {
                    1 + self.rng.below(1_000_000)
                };
                format!(
                    "MATCH (u:User {{id: {}}}) SET u.score = {score}",
                    self.user()
                )
            }
            OpKind::WriteRel => format!(
                "MATCH (u:User {{id: {}}}), (p:Product {{id: {}}}) CREATE (u)-[:ORDERED]->(p)",
                self.user(),
                self.product()
            ),
            OpKind::WriteRelSet => format!(
                "MATCH (u:User {{id: {}}}), (p:Product {{id: {}}}) \
                 CREATE (u)-[:ORDERED]->(p) SET u.score = {}",
                self.user(),
                self.product(),
                1_000 + self.pos
            ),
            OpKind::WriteTmp => {
                let id = TMP_ID_BASE + self.part + self.parts * self.next_tmp;
                self.next_tmp += 1;
                self.live_tmp.push_back(id);
                format!(
                    "MATCH (u:User {{id: {}}}) CREATE (u)-[:NOTED]->(:Tmp {{id: {id}}})",
                    self.user()
                )
            }
            OpKind::WriteDel => {
                // Every cycle with a delete has a create before it, so the
                // queue is never empty here; the fallback id matches nothing
                // and the statement is then a no-op, not an error.
                let id = self.live_tmp.pop_front().unwrap_or(TMP_ID_BASE - 1);
                format!("MATCH (t:Tmp {{id: {id}}}) DETACH DELETE t")
            }
        };
        Stmt { kind, text }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: KeySpace = KeySpace {
        users: 7_000,
        products: 3_000,
    };

    fn take(shape: Shape, seed: u64, part: u64, n: usize) -> Vec<Stmt> {
        let mut s = StatementStream::new(shape, KEYS, seed, part, 2);
        (0..n).map(|_| s.next_stmt()).collect()
    }

    const SHAPES: [Shape; 5] = [
        Shape::OltpMix,
        Shape::ReadOnly,
        Shape::WriteOnly,
        Shape::PointAnd2Hop,
        Shape::ViewWriter,
    ];

    #[test]
    fn same_seed_gives_byte_identical_statements() {
        for shape in SHAPES {
            assert_eq!(take(shape, 7, 0, 200), take(shape, 7, 0, 200));
        }
    }

    #[test]
    fn another_seed_or_client_gives_other_statements() {
        for shape in SHAPES {
            let base = take(shape, 7, 0, 200);
            assert_ne!(base, take(shape, 8, 0, 200), "{shape:?}: seed ignored");
            assert_ne!(base, take(shape, 7, 1, 200), "{shape:?}: client ignored");
        }
    }

    #[test]
    fn the_kind_sequence_does_not_depend_on_the_seed() {
        for shape in SHAPES {
            let kinds =
                |seed| -> Vec<OpKind> { take(shape, seed, 0, 64).iter().map(|s| s.kind).collect() };
            assert_eq!(kinds(1), kinds(99));
        }
    }

    #[test]
    fn oltp_mix_is_half_reads_and_its_clients_are_out_of_step() {
        let kinds = |part| -> Vec<bool> {
            take(Shape::OltpMix, 3, part, 160)
                .iter()
                .map(|s| s.kind.is_read())
                .collect()
        };
        let (a, b) = (kinds(0), kinds(1));
        for k in [&a, &b] {
            assert_eq!(k.iter().filter(|r| **r).count() * 2, k.len());
        }
        // Neither always the same kind at the same position nor always the
        // opposite one: there is no step for two clients to lock into.
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same * 4 >= a.len() && same * 4 <= a.len() * 3, "{same}");
    }

    #[test]
    fn clients_stay_in_their_partition_and_delete_only_what_they_created() {
        for part in 0..2u64 {
            let mut created: Vec<String> = Vec::new();
            for s in take(Shape::OltpMix, 11, part, 400) {
                if let Some(rest) = s.text.split("User {id: ").nth(1) {
                    let id: u64 = rest
                        .split('}')
                        .next()
                        .and_then(|d| d.parse().ok())
                        .unwrap_or(u64::MAX);
                    assert_eq!(id % 2, part, "{}", s.text);
                    assert!(id < KEYS.users);
                }
                match s.kind {
                    OpKind::WriteTmp => {
                        let id = s.text.split("Tmp {id: ").nth(1).unwrap_or("").to_owned();
                        created.push(id.trim_end_matches("})").to_owned());
                    }
                    OpKind::WriteDel => {
                        let id = s.text.split("Tmp {id: ").nth(1).unwrap_or("");
                        let id = id.split('}').next().unwrap_or("");
                        assert!(created.iter().any(|c| c == id), "{}", s.text);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn view_writer_scores_strictly_increase() {
        let mut last = 0u64;
        for s in take(Shape::ViewWriter, 5, 0, 100) {
            let score: u64 = s
                .text
                .rsplit("u.score = ")
                .next()
                .and_then(|d| d.trim().parse().ok())
                .unwrap_or(0);
            assert!(score > last, "{}", s.text);
            last = score;
        }
    }
}
