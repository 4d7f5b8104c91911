//! The kernel-flavor sweep shared by the equivalence suites.

use vc_nn::ops::gemm::{host_kernel_flavor, set_kernel_flavor_cap, KernelFlavor};

/// Lifts the flavor cap when dropped, so a failing assertion inside a sweep
/// cannot leave the rest of the binary running a capped flavor.
struct Uncap;

impl Drop for Uncap {
    fn drop(&mut self) {
        set_kernel_flavor_cap(KernelFlavor::Avx512);
    }
}

/// Runs `body` once under each kernel flavor this host has, scalar first,
/// with the cap set to that flavor; a flavor the host lacks is reported as
/// skipped on stderr, never as passed. The cap is the uncapped `Avx512`
/// again afterwards.
pub(crate) fn for_each_host_flavor(mut body: impl FnMut(KernelFlavor)) {
    let _uncap = Uncap;
    for flavor in KernelFlavor::ALL {
        if flavor <= host_kernel_flavor() {
            set_kernel_flavor_cap(flavor);
            body(flavor);
        } else {
            eprintln!("kernel flavor {} skipped: this host lacks it", flavor.name());
        }
    }
}
