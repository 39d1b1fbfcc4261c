//! Merkle trees over SHA-256 for data integrity in replicated files.
//!
//! The replication manager splits shared files into chunks; hosts prove
//! possession of individual chunks against the tree root without shipping
//! the whole file (paper §III-A's availability/file-replication discussion).

use crate::sha256::{sha256_parts, Digest};

/// Domain-separation prefixes guard against leaf/interior confusion
/// (second-preimage splicing).
const LEAF_PREFIX: &[u8] = b"\x00vc-merkle-leaf";
const NODE_PREFIX: &[u8] = b"\x01vc-merkle-node";

/// Hashes one leaf's content.
pub(crate) fn leaf_hash(data: &[u8]) -> Digest {
    sha256_parts(&[LEAF_PREFIX, data])
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_parts(&[NODE_PREFIX, left, right])
}

/// A Merkle tree built over a sequence of leaves.
///
/// Odd nodes are promoted (not duplicated), so the tree commits to the exact
/// leaf count.
///
/// ```
/// use vc_crypto::merkle::MerkleTree;
/// let tree = MerkleTree::from_leaves(&[b"a".as_slice(), b"b", b"c"]);
/// let proof = tree.prove(2).unwrap();
/// assert!(proof.verify(&tree.root(), b"c"));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, last level = [root].
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Total number of leaves in the tree.
    pub leaf_count: usize,
    /// Sibling hashes from leaf level upward, with the side each sits on.
    pub path: Vec<(Digest, Side)>,
}

/// Which side a sibling hash is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Sibling is the left child; proven node is right.
    Left,
    /// Sibling is the right child; proven node is left.
    Right,
}

impl MerkleTree {
    /// Builds a tree over the given leaf contents.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty — an empty commitment is meaningless.
    pub fn from_leaves<T: AsRef<[u8]>>(leaves: &[T]) -> MerkleTree {
        assert!(!leaves.is_empty(), "Merkle tree needs at least one leaf");
        let mut levels = vec![leaves.iter().map(|l| leaf_hash(l.as_ref())).collect::<Vec<_>>()];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if pair.len() == 2 {
                    next.push(node_hash(&pair[0], &pair[1]));
                } else {
                    // Odd node promoted unchanged.
                    next.push(pair[0]);
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root commitment.
    pub fn root(&self) -> Digest {
        self.levels.last().expect("non-empty")[0]
    }

    /// Number of leaves.
    pub(crate) fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Builds an inclusion proof for leaf `index`, or `None` out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut path = Vec::new();
        let mut pos = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = pos ^ 1;
            if sibling < level.len() {
                let side = if sibling < pos { Side::Left } else { Side::Right };
                path.push((level[sibling], side));
            }
            pos /= 2;
        }
        Some(MerkleProof { leaf_index: index, leaf_count: self.leaf_count(), path })
    }
}

impl MerkleProof {
    /// Verifies that `leaf_data` is the leaf this proof commits to under
    /// `root`.
    pub fn verify(&self, root: &Digest, leaf_data: &[u8]) -> bool {
        let mut hash = leaf_hash(leaf_data);
        for (sibling, side) in &self.path {
            hash = match side {
                Side::Left => node_hash(sibling, &hash),
                Side::Right => node_hash(&hash, sibling),
            };
        }
        &hash == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("chunk-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_leaves(&[b"only"]);
        assert_eq!(tree.root(), leaf_hash(b"only"));
        assert_eq!(tree.leaf_count(), 1);
        let proof = tree.prove(0).unwrap();
        assert!(proof.path.is_empty());
        assert!(proof.verify(&tree.root(), b"only"));
    }

    #[test]
    fn all_proofs_verify_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let data = leaves(n);
            let tree = MerkleTree::from_leaves(&data);
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(proof.verify(&tree.root(), leaf), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_data_rejected() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaves(&data);
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(&tree.root(), b"forged chunk"));
    }

    #[test]
    fn proof_does_not_transfer_between_positions() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaves(&data);
        let proof = tree.prove(3).unwrap();
        // Using leaf 4's data with leaf 3's proof must fail.
        assert!(!proof.verify(&tree.root(), &data[4]));
    }

    #[test]
    fn wrong_root_rejected() {
        let data = leaves(4);
        let tree = MerkleTree::from_leaves(&data);
        let other = MerkleTree::from_leaves(&leaves(5));
        let proof = tree.prove(0).unwrap();
        assert!(!proof.verify(&other.root(), &data[0]));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base = MerkleTree::from_leaves(&leaves(6)).root();
        for i in 0..6 {
            let mut data = leaves(6);
            data[i].push(b'!');
            assert_ne!(MerkleTree::from_leaves(&data).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn leaf_count_is_committed() {
        // Promoting odd nodes means [a, b] and [a, b, b] differ.
        let two = MerkleTree::from_leaves(&[b"a".as_slice(), b"b"]);
        let three = MerkleTree::from_leaves(&[b"a".as_slice(), b"b", b"b"]);
        assert_ne!(two.root(), three.root());
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let tree = MerkleTree::from_leaves(&leaves(3));
        assert!(tree.prove(3).is_none());
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A leaf whose content equals a serialized pair of digests must not
        // collide with the interior node of those digests.
        let a = leaf_hash(b"a");
        let b = leaf_hash(b"b");
        let mut concat = Vec::new();
        concat.extend_from_slice(&a);
        concat.extend_from_slice(&b);
        assert_ne!(leaf_hash(&concat), node_hash(&a, &b));
    }

    #[test]
    #[should_panic]
    fn empty_tree_panics() {
        MerkleTree::from_leaves::<&[u8]>(&[]);
    }
}
