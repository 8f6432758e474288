//! Deployments.

use crate::meta::ObjectMeta;
use crate::pod::PodSpec;

/// Template stamped onto pods created for a Deployment.
#[derive(Clone, Debug)]
pub struct PodTemplate {
    /// Labels applied to created pods.
    pub meta: ObjectMeta,
    /// Pod spec for created pods.
    pub spec: PodSpec,
}

/// A Deployment keeps `replicas` pods from its template alive and owns
/// them directly (single revision in this model — rollout strategies are
/// out of scope for the paper's experiments).
#[derive(Clone, Debug)]
pub struct Deployment {
    /// Metadata.
    pub meta: ObjectMeta,
    /// Desired replica count.
    pub replicas: u32,
    /// Pod template.
    pub template: PodTemplate,
}

impl Deployment {
    /// Convenience constructor.
    pub fn new(meta: ObjectMeta, replicas: u32, template: PodTemplate) -> Self {
        Deployment {
            meta,
            replicas,
            template,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_container::ImageRef;

    #[test]
    fn deployment_construction() {
        let d = Deployment::new(
            ObjectMeta::named("fn-matmul"),
            2,
            PodTemplate {
                meta: ObjectMeta::default().with_label("app", "matmul"),
                spec: PodSpec::new(ImageRef::parse("matmul")),
            },
        );
        assert_eq!(d.replicas, 2);
        assert_eq!(d.template.meta.labels["app"], "matmul");
    }
}
