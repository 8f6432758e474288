//! Container images and layers.
//!
//! Images are content-addressed stacks of layers; layer-level granularity
//! matters because a node that already holds an image's base layers only
//! pulls the delta — the mechanism behind Knative's fast re-provisioning.

use std::fmt;

use swf_cluster::mib;

/// Identifier of a layer (content digest in real registries).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LayerId(pub u64);

/// One image layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layer {
    /// Content digest.
    pub id: LayerId,
    /// Compressed size in bytes (what a pull moves).
    pub size: u64,
}

/// An image reference, e.g. `dockerhub.io/hpc/matmul:1.0`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ImageRef {
    /// Repository name.
    pub name: String,
    /// Tag.
    pub tag: String,
}

impl ImageRef {
    /// Build a reference from `name` and `tag`.
    pub fn new(name: impl Into<String>, tag: impl Into<String>) -> Self {
        ImageRef {
            name: name.into(),
            tag: tag.into(),
        }
    }

    /// Parse `name[:tag]`, defaulting the tag to `latest`.
    pub fn parse(s: &str) -> Self {
        match s.split_once(':') {
            Some((n, t)) => ImageRef::new(n, t),
            None => ImageRef::new(s, "latest"),
        }
    }
}

impl fmt::Display for ImageRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.name, self.tag)
    }
}

/// A complete image manifest.
#[derive(Clone, Debug)]
pub struct Image {
    /// The reference this manifest is published under.
    pub reference: ImageRef,
    /// Layer stack, base first.
    pub layers: Vec<Layer>,
}

impl Image {
    /// Total compressed size.
    pub fn total_size(&self) -> u64 {
        self.layers.iter().map(|l| l.size).sum()
    }

    /// A typical Python-scientific-stack image like the paper's matmul
    /// container: a base OS layer, a Python+NumPy layer and a thin app
    /// layer. `seed` decorrelates layer digests between distinct images.
    pub fn python_scientific(reference: ImageRef, seed: u64) -> Self {
        Image {
            reference,
            layers: vec![
                Layer {
                    id: LayerId(0xBA5E_0000_0000 | (seed & 0xFF)),
                    size: mib(80),
                },
                Layer {
                    id: LayerId(0x9A7A_0000_0000 | (seed & 0xFF)),
                    size: mib(350),
                },
                Layer {
                    id: LayerId(0xA4B0_0000_0000 + seed),
                    size: mib(20),
                },
            ],
        }
    }

    /// A minimal image with one layer of `size` bytes.
    #[cfg(test)]
    pub(crate) fn single_layer(reference: ImageRef, id: u64, size: u64) -> Self {
        Image {
            reference,
            layers: vec![Layer {
                id: LayerId(id),
                size,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_and_without_tag() {
        assert_eq!(
            ImageRef::parse("hpc/matmul:1.2"),
            ImageRef::new("hpc/matmul", "1.2")
        );
        assert_eq!(
            ImageRef::parse("busybox"),
            ImageRef::new("busybox", "latest")
        );
        assert_eq!(format!("{}", ImageRef::parse("a:b")), "a:b");
    }

    #[test]
    fn scientific_image_size() {
        let img = Image::python_scientific(ImageRef::parse("m"), 1);
        assert_eq!(img.total_size(), mib(450));
        assert_eq!(img.layers.len(), 3);
    }

    #[test]
    fn shared_base_layers_across_seeds() {
        let a = Image::python_scientific(ImageRef::parse("a"), 1);
        let b = Image::python_scientific(ImageRef::parse("b"), 1);
        // Same seed byte → same base/python layers, app layer may match too.
        assert_eq!(a.layers[0].id, b.layers[0].id);
        let c = Image::python_scientific(ImageRef::parse("c"), 0x100 + 1);
        // Different app layer digest.
        assert_ne!(a.layers[2].id, c.layers[2].id);
    }
}
