"""Root pytest configuration: keep test runs from writing bytecode into the checkout.

This runs before any test module imports qkdattack, so whether a checkout
holds ``src/qkdattack/__pycache__`` does not depend on whether its tests
have run there.
"""

import sys

sys.dont_write_bytecode = True
