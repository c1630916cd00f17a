module dltprivacy/benchmark

go 1.22

require dltprivacy v0.0.0

replace dltprivacy => ../
