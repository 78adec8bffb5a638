module opalperf

go 1.23
