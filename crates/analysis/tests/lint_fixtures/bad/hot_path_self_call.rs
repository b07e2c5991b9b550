// A serve-path root whose only route to an allocation is a `Self::`
// call: the call closure resolves `Self` to the caller's own impl, so
// the helper is in the hot set and its copy is flagged.

pub struct Engine;

impl Engine {
    // lint: hot-path
    pub fn serve(&self, frame: &Frame) -> Key {
        Self::derive_key(frame)
    }

    fn derive_key(frame: &Frame) -> Key {
        Key::from(frame.bytes.to_vec())
    }
}
