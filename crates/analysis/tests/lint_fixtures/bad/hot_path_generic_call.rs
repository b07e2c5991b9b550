// A serve-path root generic over a mode trait, whose only route to an
// allocation is an `M::` call through the generic parameter: the call
// closure resolves it by name to every implementation, so the exact
// mode's allocating hit check is flagged.

pub trait Mode {
    fn check(&self, frame: &Frame) -> bool;
}

pub struct Exact;

impl Mode for Exact {
    fn check(&self, frame: &Frame) -> bool {
        let copy: Vec<u8> = Vec::new();
        copy.len() == frame.len()
    }
}

// lint: hot-path
pub fn serve<M: Mode>(mode: &M, frame: &Frame) -> bool {
    M::check(mode, frame)
}
