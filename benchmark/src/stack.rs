//! Building the thing under test: model, input pool, substrate,
//! server and front door — library defaults throughout
//! (`BatchPolicy::default()`, `NetConfig::default()`,
//! `ParallelConfig::default()`), because the benchmark measures what a
//! user gets and adds no knob to the program. [`build`] is what
//! `setup_s` times.

use crate::plan::{derive, Slot, INPUT_POOL, MIX};
use crate::workload::{Kind, Substrate, Workload, BAYES_LAYERS};
use bnn_fpga::accel::{AccelConfig, Accelerator};
use bnn_fpga::mcd::BayesConfig;
use bnn_fpga::net::Request;
use bnn_fpga::nn::{models, Graph};
use bnn_fpga::quant::{QGraph, Quantizer};
use bnn_fpga::tensor::{Shape4, Tensor};
use bnn_fpga::{Backend, NetConfig, NetServer, ServeBackend, Server, Session};
use std::sync::Arc;

/// Images of the calibration batch (the first of the input pool).
const CALIB_IMAGES: usize = 16;

/// The input pool: 64 synthetic-MNIST images drawn from the run seed —
/// not a constant tensor, so no layer can get lucky on zeros.
pub struct Inputs {
    /// Single-image tensors `(1, 1, 28, 28)`.
    pub images: Vec<Tensor>,
    /// The first [`CALIB_IMAGES`] images as one batch.
    pub calib: Tensor,
}

impl Inputs {
    /// Generate the pool for `seed`.
    pub fn generate(seed: u64) -> Inputs {
        let data = bnn_fpga::data::synth_mnist(INPUT_POOL, 1, derive(seed, 0xda7a));
        let images: Vec<Tensor> = (0..INPUT_POOL)
            .map(|i| data.train_x.select_item(i))
            .collect();
        let mut calib = Tensor::zeros(Shape4::new(CALIB_IMAGES, 1, 28, 28));
        for (i, image) in images.iter().take(CALIB_IMAGES).enumerate() {
            calib.item_mut(i).copy_from_slice(image.as_slice());
        }
        Inputs { images, calib }
    }

    /// Stack pool images into one `(n, 1, 28, 28)` batch.
    pub fn batch(&self, indices: &[usize]) -> Tensor {
        let mut xs = Tensor::zeros(Shape4::new(indices.len(), 1, 28, 28));
        for (row, &i) in indices.iter().enumerate() {
            xs.item_mut(row).copy_from_slice(self.images[i].as_slice());
        }
        xs
    }
}

/// The model and whatever its substrate needs compiled from it.
pub struct Model {
    /// BN-folded LeNet-5, the f32 source of truth.
    pub graph: Arc<Graph>,
    /// The quantized graph (int8 and accel substrates).
    pub qgraph: Option<QGraph>,
    /// The accelerator instance (accel substrate).
    pub accel: Option<Accelerator>,
    /// `{L = 3, S, p = 0.25}`.
    pub bayes: BayesConfig,
    /// Which substrate serves.
    pub substrate: Substrate,
}

impl Model {
    /// Build the model for a substrate: graph + BN fold, plus
    /// calibrate/quantize for int8 and accel, plus `Accelerator::new`
    /// for accel.
    pub fn build(substrate: Substrate, samples: usize, seed: u64, inputs: &Inputs) -> Model {
        let graph = models::lenet5(10, 1, 28, seed).fold_batch_norm();
        let qgraph = (substrate != Substrate::Fused)
            .then(|| Quantizer::new(&graph).calibrate(&inputs.calib).quantize());
        let accel = match (&qgraph, substrate) {
            (Some(qg), Substrate::Accel) => Some(Accelerator::new(
                AccelConfig::default(),
                &graph,
                qg,
                inputs.calib.shape(),
            )),
            _ => None,
        };
        Model {
            graph: Arc::new(graph),
            qgraph,
            accel,
            bayes: BayesConfig::new(BAYES_LAYERS, samples),
            substrate,
        }
    }

    /// The session-level substrate choice.
    pub fn backend(&self) -> Backend {
        match (self.substrate, &self.qgraph, &self.accel) {
            (Substrate::Int8, Some(qg), _) => Backend::Int8(qg.clone()),
            (Substrate::Accel, _, Some(accel)) => Backend::Accel(accel.clone()),
            _ => Backend::Fused,
        }
    }

    /// A fresh serial session on this model's substrate, seeded.
    pub fn session(&self, seed: u64) -> Session<'_> {
        Session::for_graph(&self.graph)
            .backend(self.backend())
            .bayes(self.bayes)
            .seed(seed)
            .build()
    }

    /// The reference answer for `(x, seed)`: a fresh offline session
    /// seeded with the request's seed. The serving contract says every
    /// reply equals this bit for bit, however it was coalesced.
    pub fn replay(&self, x: &Tensor, seed: u64) -> Vec<f32> {
        self.session(seed).predictive(x).as_slice().to_vec()
    }
}

/// How the load reaches the model.
pub enum Front {
    /// A TCP front door on loopback (owns its `Server`).
    Wire(NetServer),
    /// An in-process server reached through handles.
    Inproc(Server),
    /// No server: the driver builds sessions itself.
    Session,
}

/// A running stack.
pub struct Stack {
    /// The model.
    pub model: Model,
    /// The front.
    pub front: Front,
}

impl Stack {
    /// Shut the servers down and join their threads.
    pub fn shutdown(self) {
        match self.front {
            Front::Wire(net) => net.shutdown(),
            Front::Inproc(server) => server.shutdown(),
            Front::Session => {}
        }
    }
}

/// The seed the batch workload's session stream starts from.
pub fn session_seed(seed: u64) -> u64 {
    derive(seed, 0x5e55)
}

/// The wire request of one planned slot.
pub fn wire_request(inputs: &Inputs, slot: &Slot) -> Request {
    let class = &MIX[slot.class];
    let mut request = Request::new(inputs.images[slot.input].clone())
        .tenant(class.tenant)
        .priority(class.priority)
        .seed(slot.seed);
    if let Some(us) = class.deadline_us {
        request = request.deadline_us(us);
    }
    request
}

/// Build the whole stack for a workload and get one verified answer
/// out of it: model (+ quantize, + accelerator), `Server` start, bind,
/// connect, first request, reply checked bit for bit against the
/// offline reference. Returns the stack and how many requests it
/// answered while doing so (the counter cross-check needs that).
pub fn build(w: &Workload, seed: u64, inputs: &Inputs) -> Result<(Stack, u64), String> {
    let model = Model::build(w.substrate, w.samples, seed, inputs);
    let serve_backend = || -> ServeBackend { model.backend().into() };
    let start = || {
        Server::for_graph(Arc::clone(&model.graph))
            .backend(serve_backend())
            .bayes(model.bayes)
            .seed(seed)
            .start()
    };
    let probe_seed = derive(seed, 0xf125);
    let x = &inputs.images[0];
    let (front, answer) = match w.kind {
        Kind::WireLockstep | Kind::WirePipelined | Kind::WirePoisson => {
            let net = NetServer::bind("127.0.0.1:0", start(), NetConfig::default())
                .map_err(|e| format!("bind: {e}"))?;
            let mut client = bnn_fpga::NetClient::connect(net.local_addr())
                .map_err(|e| format!("connect: {e}"))?;
            let response = client
                .send(&Request::new(x.clone()).seed(probe_seed))
                .map_err(|e| format!("first request: {e}"))?;
            let bnn_fpga::net::Response::Reply(reply) = response else {
                return Err("first request was refused".to_string());
            };
            (Front::Wire(net), reply.probs)
        }
        Kind::InprocServe => {
            let server = start();
            let reply = server
                .handle()
                .request(x.clone())
                .seed(probe_seed)
                .submit()
                .wait()
                .map_err(|e| format!("first request: {e}"))?;
            (Front::Inproc(server), reply.probs.as_slice().to_vec())
        }
        Kind::SessionBatch => {
            let probs = model.session(probe_seed).predictive_batched(x, 1);
            (Front::Session, probs.as_slice().to_vec())
        }
    };
    let reference = model.replay(x, probe_seed);
    if answer
        .iter()
        .map(|p| p.to_bits())
        .ne(reference.iter().map(|p| p.to_bits()))
    {
        return Err("first answer differs from the offline reference".to_string());
    }
    let answered = u64::from(!matches!(front, Front::Session));
    Ok((Stack { model, front }, answered))
}
