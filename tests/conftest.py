"""Settings for the whole suite.

A failing hypothesis property prints its ``@reproduce_failure`` line, so the
example can be replayed after the example database is gone.
"""

from hypothesis import settings

settings.register_profile("qdetect", print_blob=True)
settings.load_profile("qdetect")
