//! Simulated HTTP layer over the cluster network.
//!
//! A handler bound at `(node, port)` ([`HttpStack::listen`]) is called with
//! each request delivered there; clients call [`HttpStack::request`], which
//! charges network time for the request and response payloads. This is the
//! invocation path the paper uses for Knative functions ("input data is sent
//! in the function invocation as part of the invocation network request").
//!
//! A [`Body`] carries what it is given: an opaque buffer, or a list of
//! payloads kept as the buffers they are (the pass-by-value files), whose
//! length is the length of their encoding on the wire.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::rc::Rc;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use swf_simcore::{spawn, JoinHandle};

use crate::error::ClusterError;
use crate::network::{Network, NodeId};

/// The body of a request or response (real bytes — tasks compute on
/// them): an opaque buffer, or a list of payloads.
///
/// A list is sent as its encoding: a little-endian `u32` count, then each
/// payload as a `u64` length and its bytes. It is kept as the payloads
/// themselves, so sending a task's files by value copies none of them;
/// [`Body::len`] is the encoding's length, which is what the wire and the
/// (de)serialization models charge, and [`Body::to_bytes`] renders it.
#[derive(Clone, Debug)]
pub struct Body(Repr);

#[derive(Clone, Debug)]
enum Repr {
    Bytes(Bytes),
    List(Arc<[Bytes]>),
}

impl Default for Body {
    fn default() -> Self {
        Body::new()
    }
}

impl Body {
    /// An empty opaque body.
    pub const fn new() -> Self {
        Body(Repr::Bytes(Bytes::new()))
    }

    /// A list body holding `payloads`' handles: one allocation for the
    /// list, none for the payloads' bytes.
    pub fn list(payloads: &[Bytes]) -> Self {
        Body(Repr::List(Arc::from(payloads)))
    }

    /// The payloads of a list body; `None` for an opaque one.
    pub fn payloads(&self) -> Option<&[Bytes]> {
        match &self.0 {
            Repr::Bytes(_) => None,
            Repr::List(list) => Some(list),
        }
    }

    /// Length on the wire: an opaque body's bytes, or a list's encoding,
    /// `4 + Σ(8 + len)`.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Bytes(bytes) => bytes.len(),
            Repr::List(list) => 4 + list.iter().map(|b| 8 + b.len()).sum::<usize>(),
        }
    }

    /// True for an empty opaque body (a list's encoding is never empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes on the wire: an opaque body's own buffer (no copy), or a
    /// list's encoding rendered into a new one.
    pub fn to_bytes(&self) -> Bytes {
        match &self.0 {
            Repr::Bytes(bytes) => bytes.clone(),
            Repr::List(list) => {
                let mut buf = BytesMut::with_capacity(self.len());
                // A list longer than u32 saturates; no caller builds one.
                buf.put_u32_le(u32::try_from(list.len()).unwrap_or(u32::MAX));
                for b in list.iter() {
                    buf.put_u64_le(b.len() as u64);
                    buf.put_slice(b);
                }
                buf.freeze()
            }
        }
    }
}

impl From<Bytes> for Body {
    fn from(bytes: Bytes) -> Self {
        Body(Repr::Bytes(bytes))
    }
}

/// A text body: an error message's bytes, not copied.
impl From<String> for Body {
    fn from(text: String) -> Self {
        Body::from(Bytes::from(text))
    }
}

/// A simulated HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request path, e.g. `/invoke/matmul`.
    pub path: String,
    /// Request body.
    pub body: Body,
    /// Header map.
    pub headers: BTreeMap<String, String>,
}

impl Request {
    /// A request to `path` carrying `body` (an invocation's input).
    pub fn post(path: impl Into<String>, body: impl Into<Body>) -> Self {
        Request {
            path: path.into(),
            body: body.into(),
            headers: BTreeMap::new(),
        }
    }

    /// Add a header.
    pub fn with_header(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.headers.insert(k.into(), v.into());
        self
    }

    /// Total on-wire size: body plus a small framing overhead.
    pub fn wire_size(&self) -> u64 {
        self.body.len() as u64 + 256
    }
}

/// A simulated HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// 200 with a body.
    pub fn ok(body: impl Into<Body>) -> Self {
        Response {
            status: 200,
            body: body.into(),
        }
    }

    /// An empty response with the given status.
    pub fn status(status: u16) -> Self {
        Response {
            status,
            body: Body::new(),
        }
    }

    /// True for 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Total on-wire size.
    pub fn wire_size(&self) -> u64 {
        self.body.len() as u64 + 128
    }
}

/// A bound listener: runs its handler on one request as a task of its own,
/// so a caller that gives up on a request does not cancel the work it
/// started.
type Listener = Rc<dyn Fn(Request) -> JoinHandle<Response>>;

/// The cluster-wide HTTP fabric.
#[derive(Clone)]
pub struct HttpStack {
    network: Network,
    listeners: Rc<RefCell<BTreeMap<(NodeId, u16), Listener>>>,
}

impl HttpStack {
    /// Build over a network fabric.
    pub fn new(network: Network) -> Self {
        HttpStack {
            network,
            listeners: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Bind `handler` at `(node, port)`: each request delivered there is
    /// answered by `handler(request)`, run as a task of its own. Rebinding
    /// an existing address replaces the previous listener.
    pub fn listen<F, Fut>(&self, node: NodeId, port: u16, handler: F)
    where
        F: Fn(Request) -> Fut + 'static,
        Fut: Future<Output = Response> + 'static,
    {
        let listener: Listener = Rc::new(move |request| spawn(handler(request)));
        self.listeners.borrow_mut().insert((node, port), listener);
    }

    /// Remove a listener; true if one was bound.
    pub fn unlisten(&self, node: NodeId, port: u16) -> bool {
        self.listeners.borrow_mut().remove(&(node, port)).is_some()
    }

    /// Perform a full HTTP round trip from `from` to `(to, port)`.
    pub async fn request(
        &self,
        from: NodeId,
        to: NodeId,
        port: u16,
        request: Request,
    ) -> Result<Response, ClusterError> {
        let req_size = request.wire_size();
        // Charge the request payload on the wire.
        self.network.transfer(from, to, req_size).await?;
        let listener = self.listeners.borrow().get(&(to, port)).cloned().ok_or(
            ClusterError::ConnectionRefused {
                node: to.to_string(),
                port,
            },
        )?;
        // The handler's task runs on if this request is abandoned.
        let response = listener(request).await;
        // Charge the response payload on the wire back.
        self.network
            .transfer(to, from, response.wire_size())
            .await?;
        Ok(response)
    }

    /// The underlying network (for byte accounting).
    pub fn network(&self) -> &Network {
        &self.network
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{BANDWIDTH, LATENCY};
    use proptest::prelude::*;
    use std::cell::Cell;
    use swf_simcore::{now, secs, sleep, timeout, Sim, SimTime};

    /// The list encoding, written out by hand: what a list body's bytes
    /// on the wire must be.
    fn reference_encoding(payloads: &[Bytes]) -> Vec<u8> {
        let mut out = (payloads.len() as u32).to_le_bytes().to_vec();
        for p in payloads {
            out.extend_from_slice(&(p.len() as u64).to_le_bytes());
            out.extend_from_slice(p);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn list_body_is_its_encoding(
            lens in proptest::collection::vec(0usize..300, 0..6),
            fill in 0u8..=255,
        ) {
            let payloads: Vec<Bytes> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| Bytes::from(vec![fill.wrapping_add(i as u8); n]))
                .collect();
            let body = Body::list(&payloads);
            let want = reference_encoding(&payloads);
            prop_assert_eq!(body.len(), want.len());
            prop_assert_eq!(&body.to_bytes()[..], &want[..]);
            prop_assert!(!body.is_empty());
            // The list keeps the payloads' own buffers.
            let held = body.payloads().unwrap();
            prop_assert_eq!(held.len(), payloads.len());
            for (h, p) in held.iter().zip(&payloads) {
                prop_assert_eq!(h.as_ptr(), p.as_ptr());
                prop_assert_eq!(h.len(), p.len());
            }
        }
    }

    #[test]
    fn opaque_body_is_its_bytes() {
        let bytes = Bytes::from(vec![1u8, 2, 3]);
        let body = Body::from(bytes.clone());
        assert_eq!(body.len(), 3);
        assert!(body.payloads().is_none());
        assert_eq!(body.to_bytes().as_ptr(), bytes.as_ptr(), "no copy");
        assert!(Body::new().is_empty() && Body::default().is_empty());
        let request = Request::post("/", bytes);
        assert_eq!(request.wire_size(), 3 + 256);
        let response = Response::ok(Body::list(&[Bytes::from_static(b"ab")]));
        assert_eq!(response.wire_size(), 4 + 8 + 2 + 128);
    }

    fn stack(nodes: usize) -> HttpStack {
        HttpStack::new(Network::new(nodes))
    }

    /// Bind an echo server at (node, port) that doubles each body byte.
    fn listen_echo(stack: &HttpStack, node: NodeId, port: u16) {
        stack.listen(node, port, |request: Request| async move {
            let body = request.body.to_bytes();
            let doubled: Vec<u8> = body.iter().map(|b| b.wrapping_mul(2)).collect();
            Response::ok(Bytes::from(doubled))
        });
    }

    #[test]
    fn request_roundtrip() {
        let sim = Sim::new();
        sim.block_on(async {
            let st = stack(2);
            listen_echo(&st, NodeId(1), 8080);
            let resp = st
                .request(
                    NodeId(0),
                    NodeId(1),
                    8080,
                    Request::post("/", Bytes::from(vec![1, 2, 3])),
                )
                .await
                .unwrap();
            assert!(resp.is_success());
            assert_eq!(&resp.body.to_bytes()[..], &[2, 4, 6]);
        });
    }

    #[test]
    fn connection_refused_when_unbound() {
        let sim = Sim::new();
        sim.block_on(async {
            let st = stack(2);
            let err = st
                .request(NodeId(0), NodeId(1), 9999, Request::post("/", Bytes::new()))
                .await
                .unwrap_err();
            assert!(matches!(err, ClusterError::ConnectionRefused { .. }));
        });
    }

    #[test]
    fn abandoned_request_still_runs_to_completion() {
        let sim = Sim::new();
        sim.block_on(async {
            let st = stack(2);
            let done = Rc::new(Cell::new(false));
            let flag = Rc::clone(&done);
            st.listen(NodeId(1), 80, move |_request| {
                let flag = Rc::clone(&flag);
                async move {
                    sleep(secs(2.0)).await;
                    flag.set(true);
                    Response::status(204)
                }
            });
            let request = st.request(NodeId(0), NodeId(1), 80, Request::post("/", Bytes::new()));
            assert!(timeout(secs(1.0), request).await.is_err());
            assert!(!done.get(), "the handler cannot have finished yet");
            sleep(secs(2.0)).await;
            assert!(done.get(), "dropping the request cancelled its handler");
        });
    }

    #[test]
    fn large_payload_charges_wire_time() {
        let sim = Sim::new();
        sim.block_on(async {
            let st = stack(2);
            listen_echo(&st, NodeId(1), 8080);
            let body = crate::bulk::zeroed_bytes(100_000_000);
            st.request(NodeId(0), NodeId(1), 8080, Request::post("/", body))
                .await
                .unwrap();
            // The request's wire time and latency, then the response's.
            let one_way = secs(BANDWIDTH.time_for(100_000_000)) + LATENCY;
            assert!(now() >= SimTime::ZERO + one_way + one_way, "t = {}", now());
        });
    }

    #[test]
    fn unlisten_then_refused() {
        let sim = Sim::new();
        sim.block_on(async {
            let st = stack(1);
            listen_echo(&st, NodeId(0), 80);
            assert!(st.unlisten(NodeId(0), 80));
            assert!(!st.unlisten(NodeId(0), 80));
            let err = st
                .request(NodeId(0), NodeId(0), 80, Request::post("/", Bytes::new()))
                .await
                .unwrap_err();
            assert!(matches!(err, ClusterError::ConnectionRefused { .. }));
        });
    }
}
