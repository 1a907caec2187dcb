//! Fixture: two call paths acquire `alpha` and `beta` in opposite orders —
//! the `lock-order` lint must report a cycle.

use parking_lot::Mutex;

pub struct Pair {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl Pair {
    pub fn forward(&self) {
        let a = self.alpha.lock();
        let mut b = self.beta.lock();
        *b += *a;
    }

    pub fn backward(&self) {
        let b = self.beta.lock();
        let mut a = self.alpha.lock();
        *a += *b;
    }
}
