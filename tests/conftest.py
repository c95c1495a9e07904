from hypothesis import settings

# derandomized with no example database, so every run draws the same examples
settings.register_profile("loopfield", derandomize=True, database=None, deadline=None, max_examples=50)
settings.load_profile("loopfield")
