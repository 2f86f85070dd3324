"""An empty module, kept because ``bench/tracer.py`` lists ``qdha.modcat`` among
the layers it imports and traces.

Its graded-dimension and parabolic-factorisation helpers were read by no
sweep and are gone; git history holds them.
"""
