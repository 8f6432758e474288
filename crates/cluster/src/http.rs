//! Simulated HTTP layer over the cluster network.
//!
//! Listeners bind `(node, port)` and receive [`Incoming`] requests on an
//! mpsc mailbox; clients call [`HttpStack::request`] which charges network
//! time for the request and response payloads. This is the invocation path
//! the paper uses for Knative functions ("input data is sent in the function
//! invocation as part of the invocation network request").

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;

use swf_simcore::sync::{mpsc, oneshot};

use crate::error::ClusterError;
use crate::network::{Network, NodeId};

/// HTTP request method (only what the reproduction needs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// Retrieve a resource.
    Get,
    /// Invoke / submit a payload.
    Post,
    /// Remove a resource.
    Delete,
}

/// A simulated HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request path, e.g. `/invoke/matmul`.
    pub path: String,
    /// Request body (real bytes — tasks compute on them).
    pub body: Bytes,
    /// Header map.
    pub headers: BTreeMap<String, String>,
}

impl Request {
    /// A POST with a body.
    pub fn post(path: impl Into<String>, body: Bytes) -> Self {
        Request {
            method: Method::Post,
            path: path.into(),
            body,
            headers: BTreeMap::new(),
        }
    }

    /// A GET.
    pub fn get(path: impl Into<String>) -> Self {
        Request {
            method: Method::Get,
            path: path.into(),
            body: Bytes::new(),
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
    pub body: Bytes,
}

impl Response {
    /// 200 with a body.
    pub fn ok(body: Bytes) -> Self {
        Response { status: 200, body }
    }

    /// An empty response with the given status.
    pub fn status(status: u16) -> Self {
        Response {
            status,
            body: Bytes::new(),
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

/// A request delivered to a listener, with its response channel.
pub struct Incoming {
    /// The request.
    pub request: Request,
    /// Originating node.
    pub from: NodeId,
    responder: oneshot::Sender<Response>,
}

impl Incoming {
    /// Send the response back to the caller.
    pub fn respond(self, response: Response) {
        let _ = self.responder.send(response);
    }
}

type ListenerMap = BTreeMap<(NodeId, u16), mpsc::Sender<Incoming>>;

/// The cluster-wide HTTP fabric.
#[derive(Clone)]
pub struct HttpStack {
    network: Network,
    listeners: Rc<RefCell<ListenerMap>>,
}

impl HttpStack {
    /// Build over a network fabric.
    pub fn new(network: Network) -> Self {
        HttpStack {
            network,
            listeners: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Bind a listener at `(node, port)`; returns its request mailbox.
    /// Rebinding an existing address replaces the previous listener.
    pub fn listen(&self, node: NodeId, port: u16) -> mpsc::Receiver<Incoming> {
        let (tx, rx) = mpsc::channel();
        self.listeners.borrow_mut().insert((node, port), tx);
        rx
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
        let tx = {
            let listeners = self.listeners.borrow();
            listeners
                .get(&(to, port))
                .cloned()
                .ok_or(ClusterError::ConnectionRefused {
                    node: to.to_string(),
                    port,
                })?
        };
        let (resp_tx, resp_rx) = oneshot::channel();
        tx.send(Incoming {
            request,
            from,
            responder: resp_tx,
        })
        .map_err(|_| ClusterError::ConnectionRefused {
            node: to.to_string(),
            port,
        })?;
        let response = resp_rx.await.map_err(|_| ClusterError::ConnectionReset)?;
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
    use crate::network::NetworkConfig;
    use crate::units::Rate;
    use swf_simcore::{now, secs, spawn, Sim, SimDuration, SimTime};

    fn stack(nodes: usize) -> HttpStack {
        HttpStack::new(Network::new(
            NetworkConfig {
                bandwidth: Rate::mb_per_s(100.0),
                latency: SimDuration::from_millis(1),
                loopback_cost: SimDuration::from_micros(10),
            },
            nodes,
        ))
    }

    /// Spawn an echo server at (node, port) that doubles each body byte.
    fn spawn_echo(stack: &HttpStack, node: NodeId, port: u16) {
        let mut rx = stack.listen(node, port);
        spawn(async move {
            while let Some(incoming) = rx.recv().await {
                let doubled: Vec<u8> = incoming
                    .request
                    .body
                    .iter()
                    .map(|b| b.wrapping_mul(2))
                    .collect();
                incoming.respond(Response::ok(Bytes::from(doubled)));
            }
        });
    }

    #[test]
    fn request_roundtrip() {
        let sim = Sim::new();
        sim.block_on(async {
            let st = stack(2);
            spawn_echo(&st, NodeId(1), 8080);
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
            assert_eq!(&resp.body[..], &[2, 4, 6]);
        });
    }

    #[test]
    fn connection_refused_when_unbound() {
        let sim = Sim::new();
        sim.block_on(async {
            let st = stack(2);
            let err = st
                .request(NodeId(0), NodeId(1), 9999, Request::get("/"))
                .await
                .unwrap_err();
            assert!(matches!(err, ClusterError::ConnectionRefused { .. }));
        });
    }

    #[test]
    fn connection_reset_when_listener_drops_request() {
        let sim = Sim::new();
        sim.block_on(async {
            let st = stack(2);
            let mut rx = st.listen(NodeId(1), 80);
            spawn(async move {
                // Take the request and drop it without responding.
                let incoming = rx.recv().await.unwrap();
                drop(incoming);
            });
            let err = st
                .request(NodeId(0), NodeId(1), 80, Request::get("/"))
                .await
                .unwrap_err();
            assert_eq!(err, ClusterError::ConnectionReset);
        });
    }

    #[test]
    fn large_payload_charges_wire_time() {
        let sim = Sim::new();
        sim.block_on(async {
            let st = stack(2);
            spawn_echo(&st, NodeId(1), 8080);
            let body = crate::bulk::zeroed_bytes(100_000_000);
            st.request(NodeId(0), NodeId(1), 8080, Request::post("/", body))
                .await
                .unwrap();
            // ~1s request + ~1s doubled response + 2 × 1ms latency.
            assert!(now() >= SimTime::ZERO + secs(2.0), "t = {}", now());
        });
    }

    #[test]
    fn unlisten_then_refused() {
        let sim = Sim::new();
        sim.block_on(async {
            let st = stack(1);
            let _rx = st.listen(NodeId(0), 80);
            assert!(st.unlisten(NodeId(0), 80));
            assert!(!st.unlisten(NodeId(0), 80));
            let err = st
                .request(NodeId(0), NodeId(0), 80, Request::get("/"))
                .await
                .unwrap_err();
            assert!(matches!(err, ClusterError::ConnectionRefused { .. }));
        });
    }
}
