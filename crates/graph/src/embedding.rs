//! Graph embeddings (injective edge-preserving node maps).
//!
//! The paper defines: an embedding of `G` into `G'` is a 1-to-1 function
//! `φ : V(G) → V(G')` such that for each edge `(x, y) ∈ E(G)` the pair
//! `(φ(x), φ(y))` is an edge of `G'`. The `(k, G)`-tolerance property is then
//! "for every set `W` of `|V(G')| - k` nodes there is an embedding of `G`
//! into the subgraph induced by `W`". This module provides the embedding
//! type and its verification.

use crate::graph::{Graph, NodeId};

/// An embedding `φ : V(G) → V(H)` represented as a dense map
/// (`map[x] = φ(x)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Embedding {
    map: Vec<NodeId>,
}

/// Why an embedding verification failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmbeddingError {
    /// The domain size does not match the guest graph.
    DomainSizeMismatch {
        /// Number of nodes in the guest graph.
        expected: usize,
        /// Number of entries in the embedding.
        actual: usize,
    },
    /// Some image node id is not a node of the host graph.
    ImageOutOfRange {
        /// Guest node whose image is invalid.
        guest: NodeId,
        /// The invalid image.
        image: NodeId,
    },
    /// Two guest nodes map to the same host node.
    NotInjective {
        /// First guest node.
        first: NodeId,
        /// Second guest node.
        second: NodeId,
        /// Their common image.
        image: NodeId,
    },
    /// A guest edge is not preserved.
    MissingEdge {
        /// The guest edge that is not preserved.
        guest_edge: (NodeId, NodeId),
        /// Its image, which is not an edge of the host.
        image_edge: (NodeId, NodeId),
    },
}

impl std::fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmbeddingError::DomainSizeMismatch { expected, actual } => {
                write!(
                    f,
                    "embedding domain has {actual} entries, guest graph has {expected} nodes"
                )
            }
            EmbeddingError::ImageOutOfRange { guest, image } => {
                write!(f, "image {image} of guest node {guest} is not a host node")
            }
            EmbeddingError::NotInjective {
                first,
                second,
                image,
            } => {
                write!(
                    f,
                    "guest nodes {first} and {second} both map to host node {image}"
                )
            }
            EmbeddingError::MissingEdge {
                guest_edge,
                image_edge,
            } => write!(
                f,
                "guest edge ({}, {}) maps to ({}, {}), which is not a host edge",
                guest_edge.0, guest_edge.1, image_edge.0, image_edge.1
            ),
        }
    }
}

impl std::error::Error for EmbeddingError {}

impl Embedding {
    /// Creates an embedding from the dense map `map[x] = φ(x)`.
    pub fn from_map(map: Vec<NodeId>) -> Self {
        Embedding { map }
    }

    /// The identity embedding on `n` nodes.
    pub fn identity(n: usize) -> Self {
        Embedding {
            map: (0..n).collect(),
        }
    }

    /// The image of guest node `x`.
    pub fn apply(&self, x: NodeId) -> NodeId {
        self.map[x]
    }

    /// The number of guest nodes mapped.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the embedding maps no nodes.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The underlying dense map.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.map
    }

    /// Composes two embeddings: if `self : G → H` and `outer : H → K`, the
    /// result maps `G → K` by `x ↦ outer(self(x))`.
    pub fn then(&self, outer: &Embedding) -> Embedding {
        Embedding {
            map: self.map.iter().map(|&m| outer.apply(m)).collect(),
        }
    }

    /// Verifies that `self` is an embedding of `guest` into `host`:
    /// the map must be total on `V(guest)`, injective, land inside
    /// `V(host)`, and preserve every guest edge.
    pub fn verify(&self, guest: &Graph, host: &Graph) -> Result<(), EmbeddingError> {
        if self.map.len() != guest.node_count() {
            return Err(EmbeddingError::DomainSizeMismatch {
                expected: guest.node_count(),
                actual: self.map.len(),
            });
        }
        let mut seen: Vec<Option<NodeId>> = vec![None; host.node_count()];
        for (g, &h) in self.map.iter().enumerate() {
            if h >= host.node_count() {
                return Err(EmbeddingError::ImageOutOfRange { guest: g, image: h });
            }
            if let Some(first) = seen[h] {
                return Err(EmbeddingError::NotInjective {
                    first,
                    second: g,
                    image: h,
                });
            }
            seen[h] = Some(g);
        }
        for (x, y) in guest.edges() {
            let (hx, hy) = (self.map[x], self.map[y]);
            if !host.has_edge(hx, hy) {
                return Err(EmbeddingError::MissingEdge {
                    guest_edge: (x, y),
                    image_edge: (hx, hy),
                });
            }
        }
        Ok(())
    }

    /// Convenience wrapper around [`Embedding::verify`] returning a boolean.
    pub fn is_valid(&self, guest: &Graph, host: &Graph) -> bool {
        self.verify(guest, host).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn identity_embedding_of_subgraph() {
        let c4 = generators::cycle(4);
        let p4 = generators::path(4);
        let id = Embedding::identity(4);
        assert!(id.verify(&p4, &c4).is_ok());
        // The reverse direction fails: the cycle edge (0,3) is not in the path.
        assert!(matches!(
            id.verify(&c4, &p4),
            Err(EmbeddingError::MissingEdge { .. })
        ));
    }

    #[test]
    fn rejects_non_injective() {
        let p2 = generators::path(2);
        let host = generators::complete(3);
        let bad = Embedding::from_map(vec![1, 1]);
        assert!(matches!(
            bad.verify(&p2, &host),
            Err(EmbeddingError::NotInjective { image: 1, .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_and_size_mismatch() {
        let p2 = generators::path(2);
        let host = generators::complete(3);
        assert!(matches!(
            Embedding::from_map(vec![0, 9]).verify(&p2, &host),
            Err(EmbeddingError::ImageOutOfRange { image: 9, .. })
        ));
        assert!(matches!(
            Embedding::from_map(vec![0]).verify(&p2, &host),
            Err(EmbeddingError::DomainSizeMismatch { .. })
        ));
    }

    #[test]
    fn composition() {
        let inner = Embedding::from_map(vec![2, 0, 1]);
        let outer = Embedding::from_map(vec![10, 11, 12]);
        let composed = inner.then(&outer);
        assert_eq!(composed.as_slice(), &[12, 10, 11]);
    }

    #[test]
    fn display_messages_are_informative() {
        let msg = EmbeddingError::MissingEdge {
            guest_edge: (1, 2),
            image_edge: (5, 7),
        }
        .to_string();
        assert!(msg.contains("(1, 2)") && msg.contains("(5, 7)"));
    }
}
