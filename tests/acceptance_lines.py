"""The ``criterion N: PASS/FAIL`` lines the acceptance tests record, which
``conftest.py`` echoes in the terminal summary.  They live in their own
module so that test files import them by a name no other conftest shares.
"""

ACCEPTANCE_LINES: list = []
