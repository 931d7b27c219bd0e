//! Distributed data-parallel model utilities: replica synchronization and
//! gradient averaging (the work PyTorch DDP does for SALIENT).

use crate::comm::{CommError, Communicator};
use salient_nn::GnnModel;
use salient_tensor::Tensor;

/// Broadcasts rank 0's parameter values to every rank, making replicas
/// bit-identical before training starts.
///
/// # Errors
///
/// Propagates the first [`CommError`] (dead or stalled peer).
pub fn sync_model(comm: &Communicator, model: &mut dyn GnnModel) -> Result<(), CommError> {
    for p in model.params_mut() {
        let mut buf = p.value().data().to_vec();
        comm.broadcast(&mut buf)?;
        let shape = p.value().shape();
        p.set_value(Tensor::from_vec(buf, shape));
    }
    Ok(())
}

/// Averages every parameter's gradient across ranks (in place).
///
/// All ranks must call this on the same architecture, so that they visit
/// the parameters in the same order.
///
/// # Errors
///
/// Propagates the first [`CommError`] (dead or stalled peer).
pub fn average_model_gradients(
    comm: &Communicator,
    model: &mut dyn GnnModel,
) -> Result<(), CommError> {
    for p in model.params_mut() {
        comm.all_reduce_mean_tensor(p.grad_mut())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use salient_nn::{build_model, ModelKind};

    #[test]
    fn gradient_averaging_matches_mean() {
        let comms = Communicator::ring(3);
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .enumerate()
                .map(|(r, comm)| {
                    s.spawn(move || {
                        // The same replica on every rank, rank r's gradient
                        // r everywhere.
                        let mut model = build_model(ModelKind::Sage, 8, 4, 3, 2, 100);
                        for p in model.params_mut() {
                            let shape = p.value().shape();
                            *p.grad_mut() = Tensor::full(shape, r as f32);
                        }
                        average_model_gradients(&comm, model.as_mut()).unwrap();
                        model
                            .params()
                            .iter()
                            .flat_map(|p| p.grad().data().to_vec())
                            .collect::<Vec<f32>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for g in results {
            assert!(!g.is_empty());
            assert!(g.iter().all(|&v| (v - 1.0).abs() < 1e-6), "mean of 0,1,2 is 1");
        }
    }

    #[test]
    fn sync_makes_replicas_identical() {
        let comms = Communicator::ring(2);
        let values = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .enumerate()
                .map(|(r, comm)| {
                    s.spawn(move || {
                        // Different seeds => different initial replicas.
                        let mut model =
                            build_model(ModelKind::Sage, 8, 4, 3, 2, 100 + r as u64);
                        sync_model(&comm, model.as_mut()).unwrap();
                        model
                            .params()
                            .iter()
                            .flat_map(|p| p.value().data().to_vec())
                            .collect::<Vec<f32>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(values[0], values[1], "replicas must match rank 0 after sync");
    }
}
