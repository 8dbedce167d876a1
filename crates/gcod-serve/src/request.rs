//! Request and response currency of the serving front-end.

use gcod_nn::Tensor;
use gcod_platform::report::PerfReport;

/// Which backend a perf-prediction request targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backend {
    /// Route to the platform whose predicted cost
    /// ([`Platform::predicted_cost_ms`](gcod_platform::Platform::predicted_cost_ms))
    /// is lowest among the eligible suite members.
    Auto,
    /// Route to the named platform (e.g. `"gcod"`, `"pyg-cpu"`, `"hygcn"`).
    Named(String),
}

impl Backend {
    /// Convenience constructor for a named backend.
    #[cfg(test)]
    pub(crate) fn named(name: impl Into<String>) -> Self {
        Backend::Named(name.into())
    }
}

/// One client request to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Classify the given nodes of the named served model's graph. Answered
    /// from the model's full-graph logits (computed once, on the CPU kernel
    /// path); compatible requests (same served model, hence same
    /// dataset/model/precision) are coalesced into one fused gather.
    Classify {
        /// Name of the served model to query.
        model: String,
        /// Node indices to classify (order preserved, duplicates allowed).
        nodes: Vec<usize>,
    },
    /// Predict the serving cost of the named model on a backend: the router
    /// scores the platform suite with `Platform::simulate` cost predictions
    /// and dispatches to the cheapest (or the explicitly named) platform
    /// model.
    PredictPerf {
        /// Name of the served model whose workload is simulated.
        model: String,
        /// Backend selection policy.
        backend: Backend,
    },
}

impl ServeRequest {
    /// Convenience constructor for a classification request.
    pub fn classify(model: impl Into<String>, nodes: Vec<usize>) -> Self {
        ServeRequest::Classify {
            model: model.into(),
            nodes,
        }
    }

    /// Convenience constructor for an auto-routed perf prediction.
    pub fn predict_perf(model: impl Into<String>) -> Self {
        ServeRequest::PredictPerf {
            model: model.into(),
            backend: Backend::Auto,
        }
    }

    /// The served-model name this request targets.
    pub fn model(&self) -> &str {
        match self {
            ServeRequest::Classify { model, .. } | ServeRequest::PredictPerf { model, .. } => model,
        }
    }
}

/// Result of a classification request.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// The served model that answered.
    pub model: String,
    /// The queried node indices, in request order.
    pub nodes: Vec<usize>,
    /// Predicted class per queried node (argmax of the logit row).
    pub classes: Vec<usize>,
    /// Raw logit rows, one per queried node.
    pub logits: Tensor,
}

/// Result of a perf-prediction request.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfPrediction {
    /// The served model whose workload was simulated.
    pub model: String,
    /// Name of the platform the router dispatched to.
    pub platform: String,
    /// The chosen platform's full simulation report.
    pub report: PerfReport,
    /// How many suite platforms were eligible candidates for the request.
    pub candidates: usize,
}

/// One server response, matching the request kind.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// Answer to [`ServeRequest::Classify`].
    Classification(Classification),
    /// Answer to [`ServeRequest::PredictPerf`].
    Perf(PerfPrediction),
}

impl ServeResponse {
    /// The classification payload, if this is a classification response.
    pub fn as_classification(&self) -> Option<&Classification> {
        match self {
            ServeResponse::Classification(c) => Some(c),
            ServeResponse::Perf(_) => None,
        }
    }

    /// The perf payload, if this is a perf response.
    pub fn as_perf(&self) -> Option<&PerfPrediction> {
        match self {
            ServeResponse::Perf(p) => Some(p),
            ServeResponse::Classification(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let req = ServeRequest::classify("cora-gcn", vec![1, 2]);
        assert_eq!(req.model(), "cora-gcn");
        let req = ServeRequest::predict_perf("cora-gcn");
        assert_eq!(
            req,
            ServeRequest::PredictPerf {
                model: "cora-gcn".into(),
                backend: Backend::Auto
            }
        );
        assert_eq!(Backend::named("gcod"), Backend::Named("gcod".into()));
    }
}
